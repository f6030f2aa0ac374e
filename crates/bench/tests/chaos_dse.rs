//! Tier-1: dse trunk tasks survive panics. One trunk task panics on its
//! first attempt and another on its first two; the executor's attempt loop
//! retries both with seeded backoff, every point is journaled exactly once,
//! and the frontier comes out byte-identical to an undisturbed run's. A
//! trunk that panics on every attempt panics `run_dse`, which the `dse`
//! binary's panic hook turns into exit 3.
//!
//! A binary of its own: the chaos plan is process-wide, and the harness
//! runs a binary's `#[test]` functions concurrently.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use vs_bench::chaos::{clear_chaos_plan, schedule_trunk_panic};
use vs_bench::dse::{run_dse, DseOptions};
use vs_bench::journal::JOURNAL_FILE;
use vs_bench::shard::{ExecutorConfig, Preload};
use vs_bench::{Executor, RunSettings};
use vs_telemetry::{read_journal, JournalRecord};

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
    clear_chaos_plan();
    let reference = run_dse(&Executor::default(), &opts);
    assert_eq!((reference.evaluated, reference.trunks), (16, 4));

    let dir = std::env::temp_dir().join(format!("vs-bench-chaos-dse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    schedule_trunk_panic("stack=4x4,area=0.1,workload=1", 1);
    schedule_trunk_panic("stack=4x4,area=0.4,workload=1", 2);
    let exec = Executor::new(ExecutorConfig::default(), Some(dir.clone()), Preload::new());
    let run = run_dse(&exec, &opts);
    clear_chaos_plan();
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
    let attempts = ExecutorConfig::default().max_attempts;
    schedule_trunk_panic("stack=4x4,area=0.2,workload=1", attempts);
    let exhausted = catch_unwind(AssertUnwindSafe(|| run_dse(&Executor::default(), &opts)));
    clear_chaos_plan();
    assert!(exhausted.is_err(), "exhausted retries panic run_dse");
}
