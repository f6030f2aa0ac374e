//! Tier-1: the scenario-sharded sweep is deterministic across worker
//! counts, and the per-worker pool shards actually pay off.

use std::collections::HashMap;

use vs_bench::shard::ShardStats;
use vs_bench::sweep::{run_sweep, SweepOptions};
use vs_bench::{benchmark_names, Executor, ExperimentId, RunSettings};
use vs_core::{PdsKind, PowerManagement};

/// Small enough for debug-mode CI: fig8 runs 4 suites x 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 30_000,
        seed: 42,
    }
}

/// One traced sweep at the given worker count, on a fresh executor.
/// Returns the deterministic view of every artifact, the shard counters it
/// left, and the executor it ran on.
fn sweep(jobs: usize) -> (Vec<(String, String, String)>, ShardStats, Executor) {
    let exec = Executor::new(None, HashMap::new());
    exec.tracer().set_enabled(true);
    let result = run_sweep(
        &exec,
        &SweepOptions {
            jobs,
            only: Some(vec![ExperimentId::Fig8]),
            settings: micro(),
        },
    );
    assert!(!result.is_degraded(), "clean sweep must not degrade");
    assert_eq!(result.jobs, jobs, "worker pool must not be capped at the experiment count");
    let artifacts = result
        .runs
        .iter()
        .map(|r| {
            (
                r.id.name().to_string(),
                r.output.text.clone(),
                r.output.artifact.deterministic_jsonl(),
            )
        })
        .collect();
    (artifacts, exec.stats(), exec)
}

#[test]
fn sharded_sweep_is_bit_identical_across_worker_counts() {
    // Tracing on for the whole comparison: recording spans and executor
    // metrics must never leak into artifact bytes (the acceptance bar for
    // the observability layer being purely observational).
    let (a1, s1, e1) = sweep(1);
    let (a2, s2, e2) = sweep(2);
    let (a8, s8, last) = sweep(8);
    let events: Vec<_> = [&e1, &e2, &last].iter().flat_map(|e| e.tracer().drain()).collect();
    assert!(!events.is_empty(), "traced sweeps must record spans");

    // The determinism contract: text and artifacts depend only on the
    // settings, never on worker count, claim order, or stealing.
    assert_eq!(a1, a2, "jobs=1 vs jobs=2 artifacts diverged");
    assert_eq!(a1, a8, "jobs=1 vs jobs=8 artifacts diverged");

    // Every sweep ran all 48 scenario tasks through worker-pool shards.
    for s in [s1, s2, s8] {
        assert_eq!(s.scenario_tasks, 48, "{s:?}");
    }
    // Fig8's conventional-VRM and single-layer-IVR suites solve DC
    // operating points; 12 same-netlist tasks over fewer shards leave some
    // shard running at least two, so its second run must come from the DC
    // cache.
    for s in [s1, s2, s8] {
        assert!(s.dc_cache_hits >= 1, "{s:?}");
    }
    // With more workers than experiments, the extra workers must have
    // stolen scenario tasks instead of exiting (fig8's suites each stay
    // claimable for many milliseconds per task).
    assert!(s8.steals >= 1, "{s8:?}");
    assert_eq!(s1.steals, 0, "a lone worker has nobody to steal from: {s1:?}");

    // The memoized suite from the last sweep is assembled in canonical
    // scenario order regardless of which worker ran which task.
    let reports = last.run_suite(&micro().config(PdsKind::ConventionalVrm), &PowerManagement::default());
    let order: Vec<String> = reports.iter().map(|r| r.benchmark.clone()).collect();
    assert_eq!(order, benchmark_names());
}
