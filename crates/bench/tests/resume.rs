//! Tier-1 property test: torn-write recovery. Whatever subset of scenario
//! caches is truncated at whatever byte offset — and whatever journal lines
//! are lost or torn — `--resume` recomputes exactly the damaged scenarios
//! and converges to artifacts byte-identical with the undamaged run.
//!
//! The damage schedule is driven by the repo's own FNV hash, so the
//! "property" sweep is seeded and reproducible, not flaky.

use std::path::{Path, PathBuf};

use vs_bench::journal::{Replay, Tally};
use vs_bench::sweep::{run_sweep, SweepOptions, SweepResult};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_telemetry::fnv1a_64;

/// Small enough for debug-mode CI: fig14 runs 2 suites x 12 scenarios, and
/// after the first pass every undamaged scenario replays from the journal.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 12_000,
        seed: 42,
    }
}

/// A journaled fig14 sweep on a fresh executor that replays `replay`,
/// with the executor that ran it.
fn journaled_sweep(dir: &Path, jobs: usize, replay: Replay) -> (SweepResult, Executor) {
    let exec = Executor::new(Some(dir.to_path_buf()), replay);
    let result = run_sweep(
        &exec,
        &SweepOptions {
            jobs,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    (result, exec)
}

/// Every scenario cache file under `dir/scenarios/`, sorted for a stable
/// damage schedule.
fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("scenarios"))
        .expect("scenarios dir")
        .flat_map(|suite| std::fs::read_dir(suite.unwrap().path()).unwrap())
        .map(|f| f.unwrap().path())
        .collect();
    files.sort();
    files
}

#[test]
fn torn_writes_are_recomputed_exactly_and_artifacts_converge() {
    let dir = std::env::temp_dir().join(format!("vs-bench-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Reference run: journaled, then written deterministically.
    let (fresh, exec) = journaled_sweep(&dir, 2, Replay::default());
    assert!(!fresh.is_degraded());
    fresh.write_deterministic_to(&exec, &dir).unwrap();
    let fresh_artifact = std::fs::read(dir.join("fig14.jsonl")).unwrap();
    let caches = cache_files(&dir);
    assert_eq!(caches.len(), 24, "fig14 journals both suites fully");

    // Property sweep: four seeded rounds of cache truncation, each damaging
    // a different subset at a different offset, each resumed at a different
    // worker count.
    for (round, jobs) in [(0u64, 1usize), (1, 2), (2, 8), (3, 2)] {
        let h = fnv1a_64(format!("resume-round:{round}").as_bytes());
        let damage_count = 1 + (h % 3) as usize; // 1..=3 caches
        let mut victims = Vec::new();
        for k in 0..damage_count {
            let idx = (fnv1a_64(format!("victim:{round}:{k}").as_bytes()) as usize
                + k * 7)
                % caches.len();
            if !victims.contains(&idx) {
                victims.push(idx);
            }
        }
        for &idx in &victims {
            let path = &caches[idx];
            let bytes = std::fs::read(path).unwrap();
            let cut = 1 + (fnv1a_64(format!("cut:{round}:{idx}").as_bytes()) as usize
                % (bytes.len() - 1));
            std::fs::write(path, &bytes[..cut]).unwrap();
        }

        let replay = Replay::load(&dir).unwrap();
        let expected = Tally { verified: 24 - victims.len(), damaged: victims.len() };
        assert_eq!(replay.scenarios, expected, "round {round}");

        let (resumed, exec) = journaled_sweep(&dir, jobs, replay);
        assert!(!resumed.is_degraded(), "round {round}");
        let stats = resumed.stats;
        // Exactly the damaged scenarios recomputed, everything else replayed.
        assert_eq!(stats.scenario_tasks, victims.len() as u64, "round {round}: {stats:?}");
        assert_eq!(stats.replayed, (24 - victims.len()) as u64, "round {round}: {stats:?}");

        resumed.write_deterministic_to(&exec, &dir).unwrap();
        let healed = std::fs::read(dir.join("fig14.jsonl")).unwrap();
        assert_eq!(
            healed, fresh_artifact,
            "round {round}: healed artifact must match the undamaged run bit-for-bit"
        );
    }

    // Journal-loss round: drop every record naming one scenario (as if the
    // journal appends never made it to disk) and tear the final line
    // mid-byte. Resume must skip the torn line, lose exactly that scenario
    // in both suites, and recompute only those two tasks.
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    let mut kept: String = text
        .lines()
        .filter(|l| !l.contains("srad"))
        .map(|l| format!("{l}\n"))
        .collect();
    kept.push_str("{\"type\":\"scenario_done\",\"suite\":\"tor"); // torn mid-record
    std::fs::write(dir.join("journal.jsonl"), kept).unwrap();

    let replay = Replay::load(&dir).unwrap();
    assert!(replay.skipped_lines >= 1, "{replay:?}");
    assert_eq!(replay.scenarios, Tally { verified: 22, damaged: 0 });

    let (resumed, exec) = journaled_sweep(&dir, 2, replay);
    assert!(!resumed.is_degraded());
    let stats = resumed.stats;
    assert_eq!(stats.scenario_tasks, 2, "{stats:?}");
    assert_eq!(stats.replayed, 22, "{stats:?}");
    resumed.write_deterministic_to(&exec, &dir).unwrap();
    assert_eq!(std::fs::read(dir.join("fig14.jsonl")).unwrap(), fresh_artifact);

    let _ = std::fs::remove_dir_all(&dir);
}
