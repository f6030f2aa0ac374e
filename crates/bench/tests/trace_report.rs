//! Tier-1 observability: a traced chaos sweep yields a loadable Perfetto
//! trace with retry/quarantine spans and the executor's run counters, the
//! run report names the quarantined (suite, scenario) pairs with
//! per-scenario p95s, and `diff-baseline` gates drift between artifact
//! stores.

use std::path::PathBuf;

use vs_bench::chaos::{ChaosEvent, ChaosMode, ChaosPlan};
use vs_bench::journal::Replay;
use vs_bench::report::{diff_baseline, RunReport, TRACE_FILE};
use vs_bench::sweep::{run_sweep, SweepOptions};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_core::{derive_seed, ScenarioId};
use vs_telemetry::json::{self, Json};
use vs_telemetry::{
    chrome_trace_json, parse_chrome_trace, write_atomic, ToleranceSpec, TraceEvent, TracePhase,
};

/// Small enough for debug-mode CI: fig14 runs 2 suites x 12 scenarios.
fn micro() -> RunSettings {
    RunSettings { workload_scale: 0.02, max_cycles: 30_000, seed: 42 }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic event generator for the serialization fuzz: xorshift64
/// seeded through the workload seed-derivation tree, offsets capped below
/// 10^14 ns so the microsecond round trip is exact by construction.
fn fuzz_events(n: usize) -> Vec<TraceEvent> {
    let mut s = derive_seed(42, "trace-roundtrip-fuzz") | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    const NAMES: [&str; 5] = ["task", "attempt", "backoff", "replay", "quarantine"];
    const CATS: [&str; 3] = ["executor", "journal", "artifact"];
    (0..n)
        .map(|i| {
            let at = next() % 100_000_000_000_000;
            let phase = if next() % 3 == 0 {
                TracePhase::Instant { at_ns: at }
            } else {
                TracePhase::Complete { start_ns: at, dur_ns: next() % 1_000_000_000_000 }
            };
            TraceEvent {
                name: NAMES[(next() % 5) as usize].to_string(),
                cat: CATS[(next() % 3) as usize].to_string(),
                track: next() % 8,
                phase,
                args: vec![
                    ("i".to_string(), i.to_string()),
                    ("r".to_string(), (next() % 1000).to_string()),
                ],
            }
        })
        .collect()
}

#[test]
fn traced_chaos_sweep_report_and_baseline_diff() {
    let dir = tmp("run");
    let drift_dir = tmp("drift");

    // Phase 1 — chaos sweep with tracing on: bfs panics once per suite
    // (retry + backoff spans), heartwall stalls then panics
    // through its remaining attempts (quarantined in both fig14 suites).
    let plan = ChaosPlan {
        seed: 11,
        tasks: vec![
            ChaosEvent { scenario: ScenarioId::Bfs, mode: ChaosMode::Panic, attempts: 1 },
            ChaosEvent {
                scenario: ScenarioId::Heartwall,
                mode: ChaosMode::Stall { at_cycle: 1_000 },
                attempts: 1,
            },
            ChaosEvent { scenario: ScenarioId::Heartwall, mode: ChaosMode::Panic, attempts: 3 },
        ],
        torn_writes: vec![],
        trunk_panics: vec![],
    };
    let exec = Executor::new(Some(dir.clone()), Replay::default()).with_chaos(plan);
    exec.tracer().set_enabled(true);
    let result = run_sweep(
        &exec,
        &SweepOptions {
            jobs: 2,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    assert!(result.is_degraded());
    assert_eq!(result.quarantined.len(), 2, "{:?}", result.quarantined);
    result.write_to(&exec, &dir).unwrap();

    // The trace carries the whole lifecycle: attempts by outcome, retry
    // backoffs, pool rebuilds after panics, and quarantine instants.
    let events = exec.tracer().drain();
    let metrics = exec.metrics();
    let attempts = |outcome: &str| {
        events
            .iter()
            .filter(|e| e.name == "attempt" && e.arg("outcome") == Some(outcome))
            .count()
    };
    // Per suite: bfs panics once, heartwall hits 1 deadline + 2 panics.
    assert_eq!(attempts("panic"), 6, "bfs 1 + heartwall 2, per suite");
    assert_eq!(attempts("deadline"), 2, "heartwall stall, per suite");
    assert!(attempts("ok") >= 22, "11 healthy scenarios x 2 suites + bfs retries");
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("backoff"), 6, "one backoff per retry");
    assert_eq!(count("quarantine"), 2);
    // A panic poisons the shard it unwound through: bfs's group attempt
    // panics once for both suites' runs, heartwall's solo retries four times.
    assert_eq!(count("pool_rebuild"), 5, "every panic poisons its shard");
    // Per scenario, the two suites' runs share one group task and trunk.
    assert_eq!(count("group"), 12, "a group span per group task");
    assert!(
        events
            .iter()
            .filter(|e| e.name == "group")
            .all(|e| e.arg("members") == Some("2") && e.arg("forks").is_some()),
        "group spans name their members and forks"
    );
    assert_eq!(metrics.counter("executor.groups"), Some(12));
    assert!(metrics.counter("cosim.gpu_ticks").is_some_and(|t| t > 0));
    assert!(count("task") >= 24, "a task span per scenario task");
    assert!(count("artifact_write") >= 2, "fig14.jsonl + manifest.jsonl");
    assert_eq!(metrics.counter("executor.retries"), Some(6));
    assert_eq!(metrics.counter("executor.quarantines"), Some(2));
    // One count per fact: the trace's metrics are exactly the run counters
    // the manifest's `run_stats` line carries, under their trace names.
    let stats = exec.stats();
    let mut run_stats = [
        ("executor.steals", stats.steals),
        ("executor.replays", stats.replayed),
        ("executor.retries", stats.retries),
        ("executor.quarantines", stats.quarantined),
        ("executor.groups", stats.groups),
        ("cosim.gpu_ticks", stats.gpu_ticks),
        ("cosim.parked", stats.parked),
        ("cosim.prefix_reticks", stats.prefix_reticks),
    ]
    .map(|(name, value)| (name.to_string(), value));
    run_stats.sort();
    assert_eq!(metrics.counters, run_stats);
    assert!(metrics.gauges.is_empty(), "{:?}", metrics.gauges);

    // Export -> parse: the Perfetto JSON is loadable and lossless (event
    // identity, timelines, tracks, and the embedded metrics snapshot).
    let text = chrome_trace_json(&events, Some(&metrics));
    write_atomic(&dir.join(TRACE_FILE), text.as_bytes()).unwrap();
    let (parsed, parsed_metrics) = parse_chrome_trace(&text).unwrap();
    assert_eq!(parsed, events);
    assert_eq!(parsed_metrics.as_ref().and_then(|m| m.counter("executor.quarantines")), Some(2));

    // Phase 2 — the run report joins manifest + journal + trace: it names
    // the quarantined (suite, scenario) pairs and gives per-scenario p95s.
    let report = RunReport::load(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 2);
    assert!(report.quarantined.iter().all(|q| q.scenario == ScenarioId::Heartwall));
    let stats = report.run_stats.expect("write_to records run_stats");
    assert_eq!(stats.quarantined, 2);
    assert_eq!(stats.retries, 6);
    // The manifest line keeps the keys the benchmark ledger reads.
    let manifest = std::fs::read_to_string(dir.join("manifest.jsonl")).unwrap();
    let line = manifest.lines().find(|l| l.contains("\"run_stats\"")).unwrap();
    let Json::Obj(fields) = json::parse(line).unwrap() else { panic!("{line}") };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "type",
            "scenario_tasks",
            "steals",
            "dc_cache_hits",
            "replayed",
            "retries",
            "quarantined",
            "groups",
            "gpu_ticks",
            "parked",
            "prefix_reticks"
        ]
    );
    let bfs = report
        .scenarios
        .iter()
        .find(|t| t.scenario == "bfs")
        .expect("journal v2 metadata yields bfs timings");
    assert_eq!(bfs.tasks, 2);
    assert_eq!(bfs.retries, 2, "one retry per suite");
    assert!(bfs.p50_s <= bfs.p95_s && bfs.p95_s <= bfs.max_s && bfs.max_s > 0.0);
    assert!(
        !report.scenarios.iter().any(|t| t.scenario == "heartwall"),
        "quarantined tasks never reach the journal"
    );
    let trace_summary = report.trace.as_ref().expect("trace.json is summarized");
    assert!(trace_summary.span_counts.iter().any(|(n, c)| n == "attempt" && *c >= 30));
    let rendered = report.render();
    assert!(rendered.contains("heartwall"), "{rendered}");
    assert!(rendered.contains("p95 s"), "{rendered}");
    assert!(rendered.contains("quarantined:"), "{rendered}");

    // Phase 3 — diff-baseline: a store matches itself exactly; a candidate
    // that lost a declared artifact fails; one that drifted a metric value
    // beyond tolerance fails with the offending key in the verdict.
    let spec = ToleranceSpec::exact();
    let verdict = diff_baseline(&dir, &dir, &spec).unwrap();
    assert!(verdict.is_pass(), "{}", verdict.render());
    assert!(!verdict.artifacts.is_empty());

    std::fs::create_dir_all(&drift_dir).unwrap();
    let copy = |name: &str| {
        std::fs::copy(dir.join(name), drift_dir.join(name)).unwrap();
    };
    copy("manifest.jsonl");
    let missing = diff_baseline(&dir, &drift_dir, &spec).unwrap();
    assert!(!missing.is_pass(), "missing declared artifact must fail");
    let json = missing.to_json().to_string_compact();
    assert!(json.contains("\"pass\":false"), "{json}");

    copy("fig14.jsonl");
    // Value drift: shift fig14's saving_avg gauge by an order of magnitude
    // (a schema-compared metric — unlike the wall-time stages line, which
    // the differ excludes by schema and which must NOT trip the gate).
    let path = drift_dir.join("fig14.jsonl");
    let original = std::fs::read_to_string(&path).unwrap();
    let perturbed = original.replacen("\"saving_avg\":0.", "\"saving_avg\":9.", 1);
    assert_ne!(perturbed, original, "fig14 must carry a saving_avg gauge");
    std::fs::write(&path, perturbed).unwrap();
    let drifted = diff_baseline(&dir, &drift_dir, &spec).unwrap();
    assert!(!drifted.is_pass(), "perturbed metric must violate the exact tolerance");
    let failed = drifted
        .artifacts
        .iter()
        .find(|a| a.file == "fig14.jsonl" && !a.pass)
        .expect("fig14.jsonl is the drifted artifact");
    assert!(
        failed.failures.iter().any(|f| f.contains("saving_avg")),
        "{:?}",
        failed.failures
    );

    // Phase 4 — serialization fuzz: 300 generated events (seeded through
    // `derive_seed`, offsets < 10^14 ns) survive the Chrome JSON round
    // trip bit-exactly — identity, args, tracks, and timestamps.
    let generated = fuzz_events(300);
    let (reparsed, no_metrics) = parse_chrome_trace(&chrome_trace_json(&generated, None)).unwrap();
    assert!(no_metrics.is_none());
    assert_eq!(reparsed, generated);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&drift_dir);
}
