//! Tier-1: the dse driver's determinism matrix, crash recovery, and shared
//! runs. A 64-point grid produces bit-identical frontier artifacts
//! whatever the worker count, and `--resume` after
//! an injected torn write (plus a tampered point cache) recomputes exactly
//! the lost points and converges to the undisturbed bytes, with only point
//! records in the journal. On a 128-point
//! grid the shared runs, forked from their trunks and stepped in lockstep
//! lanes, reproduce the per-point oracle bit for bit, as do the runs of a
//! grid whose eager controllers force fallbacks; and the traced binary
//! spans each trunk and each computed run once.

use std::path::{Path, PathBuf};
use std::process::Command;

use vs_bench::chaos::ChaosPlan;
use vs_bench::dse::{evaluate_point, run_dse, DseOptions};
use vs_bench::journal::{point_cache_rel, read_journal, JournalRecord, Replay, Tally, JOURNAL_FILE};
use vs_bench::space::AxisSpace;
use vs_bench::{Executor, RunSettings};
use vs_circuit::SolverWorkspace;
use vs_telemetry::{parse_chrome_trace, TracePhase};

/// Small enough for debug-mode CI: every point runs at the step clamps.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 20_000,
        seed: 42,
    }
}

/// 4 areas x 4 latencies x 2 families x 2 thresholds = 64 points.
fn grid() -> AxisSpace {
    "area=0.1|0.2|0.4|1.72,latency=30|60|90|120,pds=cross|circuit,vth=0.88|0.9"
        .parse()
        .expect("grid spec")
}

/// An executor that journals into `dir` and replays `replay`.
fn journaling(dir: &Path, replay: Replay) -> Executor {
    Executor::new(Some(dir.to_path_buf()), replay)
}

/// Asserts that `dir`'s journal holds only `point_done` records: a
/// resumed dse rebuilds its frontier from the points, so it journals
/// nothing else.
fn assert_only_points_journaled(dir: &Path) {
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal");
    let (records, skipped) = read_journal(&text);
    assert_eq!(skipped, 0);
    assert!(!records.is_empty());
    for record in records {
        assert!(matches!(record, JournalRecord::PointDone { .. }), "{record:?}");
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-dse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dse_artifacts_are_schedule_invariant_and_resume_converges() {
    assert_eq!(grid().len(), 64);

    // Phase 1 — undisturbed reference: one worker.
    let reference = run_dse(&Executor::default(), &DseOptions {
        jobs: 1,
        settings: micro(),
        space: grid(),
    });
    assert_eq!(reference.enumerated, 64);
    assert_eq!(reference.rows.len(), 64, "all 64 points are SuiteKey-unique");
    assert_eq!(reference.evaluated, 64);
    assert!(reference.rows.iter().any(|r| r.on_frontier));
    let ref_bytes = reference.artifact(true).to_jsonl();

    // Phase 2 — determinism matrix: more workers reorder the schedule but
    // never the bytes.
    for jobs in [2, 8] {
        let run = run_dse(&Executor::default(), &DseOptions {
            jobs,
            settings: micro(),
            space: grid(),
        });
        assert_eq!(run.artifact(true).to_jsonl(), ref_bytes, "artifact drifted at jobs={jobs}");
    }

    // Phase 3 — a journaled run with one point-cache write torn mid-byte
    // (simulated SIGKILL between cache write and journal append).
    let dir = tmp("resume");
    let settings = micro();
    let points = grid().points();
    let torn_key = points[17].suite_key(&settings);
    let plan = ChaosPlan {
        seed: 7,
        torn_writes: vec![format!("{}.json", torn_key.cache_dir())],
        ..ChaosPlan::default()
    };
    let chaos_run = run_dse(&journaling(&dir, Replay::default()).with_chaos(plan), &DseOptions {
        jobs: 2,
        settings,
        space: grid(),
    });
    assert_eq!(chaos_run.artifact(true).to_jsonl(), ref_bytes);
    chaos_run.write_to(&dir, false).expect("frontier written");
    assert_only_points_journaled(&dir);

    // Tamper a second, successfully journaled cache: its checksum must
    // flag it damaged on replay.
    let tampered_key = points[3].suite_key(&settings);
    assert_ne!(torn_key.to_hex(), tampered_key.to_hex());
    let tampered_path = dir.join(point_cache_rel(&tampered_key));
    let mut bytes = std::fs::read(&tampered_path).expect("tampered cache exists");
    bytes[0] ^= 0x01;
    std::fs::write(&tampered_path, &bytes).unwrap();

    // The torn point was never journaled (write-then-journal order), so it
    // is missing rather than damaged; the tampered point is damaged.
    let replay = Replay::load(&dir).expect("journal replays");
    // Exactly the tampered cache is damaged.
    assert_eq!(replay.points, Tally { verified: 62, damaged: 1 });
    assert_eq!(replay.skipped_lines, 0);
    assert!(!replay.metrics.contains_key(&torn_key));
    assert!(!replay.metrics.contains_key(&tampered_key));

    // Phase 4 — resume: exactly the two lost points recompute, executing
    // only the runs they read (at different areas they share neither
    // run), and the artifact converges to the undisturbed bytes.
    let exec = journaling(&dir, replay);
    let resumed = run_dse(&exec, &DseOptions {
        jobs: 2,
        settings,
        space: grid(),
    });
    assert_eq!(resumed.replayed, 62);
    // The executor counts the replayed points too, so a resumed run's
    // trace reads the replays its `[dse]` line prints.
    assert_eq!(exec.stats().replayed, 62);
    assert_eq!(resumed.evaluated, 2, "only the torn and tampered points rerun");
    assert_ne!(points[3].area, points[17].area);
    assert_eq!((resumed.pde_runs, resumed.worst_case_runs), (2, 2));
    assert_eq!((resumed.trunks, resumed.forks), (2, 2));
    assert_eq!(resumed.artifact(true).to_jsonl(), ref_bytes);
    resumed.write_to(&dir, false).expect("frontier written");
    assert_only_points_journaled(&dir);

    // The healed journal now verifies everything.
    let healed = Replay::load(&dir).expect("journal replays");
    assert_eq!(healed.points, Tally { verified: 64, damaged: 0 });

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every axis but workload at two values: 2 stacks x 2 areas x 2 families
/// x 2 thresholds x 2 latencies x 2 weight mixes x 2 detectors.
const ORACLE_GRID: &str = "stack=2x8|4x4,area=0.1|1.72,pds=cross|circuit,vth=0.88|0.9,\
     latency=30|120,weights=1:0:0|0.4:0.2:0.4,detector=oddd|cpm";

/// Runs `space` through `run_dse` at jobs 1 and 8, holds every row to the
/// per-point oracle bit for bit, and returns the runs' results.
fn runs_matching_the_oracle(space: &AxisSpace) -> Vec<vs_bench::dse::DseResult> {
    let oracle: Vec<_> = space
        .points()
        .iter()
        .map(|p| evaluate_point(p, &micro(), SolverWorkspace::new()).0)
        .collect();
    [1, 8]
        .into_iter()
        .map(|jobs| {
            let shared = run_dse(&Executor::default(), &DseOptions {
                jobs,
                settings: micro(),
                space: space.clone(),
            });
            assert_eq!(shared.evaluated, space.len());
            for ((point, row), m) in shared.points.iter().zip(&shared.rows).zip(&oracle) {
                let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
                assert!(
                    bits(row.pde, m.pde) && bits(row.worst_v, m.worst_v) && bits(row.final_v, m.final_v),
                    "{point} at jobs={jobs}: {row:?} vs oracle {m:?}"
                );
            }
            shared
        })
        .collect()
}

#[test]
fn shared_runs_match_the_per_point_oracle() {
    let space: AxisSpace = ORACLE_GRID.parse().expect("grid spec");
    assert_eq!(space.len(), 128);
    for shared in runs_matching_the_oracle(&space) {
        let jobs = shared.jobs;
        // PDE: per (stack, area), one circuit run plus one cross run per
        // (latency, detector) = 4 x 5. Worst case: per (stack, area), one
        // circuit run plus one cross run per controller setting = 4 x 17.
        assert_eq!((shared.pde_runs, shared.worst_case_runs), (20, 68));
        // One trunk per (stack, area). At 0.88 and 0.9 V no controller
        // acts before the gate, so every worst-case run forks.
        assert_eq!(shared.trunks, 4);
        assert_eq!((shared.forks, shared.fallbacks), (68, 0), "jobs={jobs}");
        // The tails stepped in lockstep: most lane-solves went through
        // multi-lane groups, so a fallback to singleton solves fails here.
        let lanes = shared.batch_stats;
        assert!(lanes.multi_lane_groups > 0, "jobs={jobs}: {lanes:?}");
        assert!(
            lanes.multi_lane_solves > lanes.singleton_solves,
            "jobs={jobs}: {lanes:?}"
        );
    }
}

#[test]
fn runs_whose_controllers_act_before_the_gate_fall_back_to_the_oracle() {
    // Under the steady load the 2x8 stack's layers sit just below the 1 V
    // nominal, so a 1.1 V threshold throttles long before the gate and
    // those runs must fall back; the 4x4 stack's layers sit above nominal,
    // where the controller stages the steady load, so its runs fork.
    let space: AxisSpace =
        "stack=2x8|4x4,area=0.2|1.72,pds=cross|circuit,vth=0.9|1.1,latency=30|120"
            .parse()
            .expect("grid spec");
    assert_eq!(space.len(), 32);
    for shared in runs_matching_the_oracle(&space) {
        assert_eq!(shared.trunks, 4);
        assert_eq!(shared.worst_case_runs, 4 * 5);
        assert_eq!(shared.forks + shared.fallbacks, shared.worst_case_runs);
        let (forks, fallbacks) = (shared.forks, shared.fallbacks);
        assert!(forks > 0 && fallbacks > 0, "{forks} forks, {fallbacks} fallbacks");
    }
}

#[test]
fn traced_binary_spans_each_executed_run_once() {
    // The tiny grid at the micro settings (through the env profile): 3
    // areas x (1 circuit + 2 cross latencies) runs of each kind.
    let dir = tmp("traced");
    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(["--profile", "env", "--jobs", "2", "--deterministic", "--trace"])
        .args(["--progress", "off", "--out"])
        .arg(&dir)
        .env("VS_BENCH_SCALE", "0.02")
        .env("VS_BENCH_MAX_CYCLES", "20000")
        .output()
        .expect("spawn dse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.lines().any(|l| l == "[dse] runs: 9 pde + 9 worst-case for 12 point(s)"),
        "{stderr}"
    );
    // One trunk per area, 512 steps each (the PDE length); the 9 worst-case
    // runs fork at step 410 of 1024 and step 614 each.
    assert!(
        stderr.lines().any(|l| l
            == "[dse] trunks: 3 trunk(s), 9 fork(s), 0 fallback(s); \
                7062 lane-step(s) = 1536 trunk + 5526 tail"),
        "{stderr}"
    );

    let text = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let (events, metrics) = parse_chrome_trace(&text).expect("trace parses");
    assert!(metrics.is_some(), "trace embeds the executor metrics");
    let trunks: Vec<_> = events
        .iter()
        .filter(|e| e.cat == "dse" && e.name == "trunk")
        .collect();
    assert_eq!(trunks.len(), 3, "trunk spans");
    for span in trunks {
        assert!(matches!(span.phase, TracePhase::Complete { .. }));
        assert_eq!((span.arg("stack"), span.arg("steps")), (Some("4x4"), Some("512")));
    }
    for name in ["pde_run", "worst_case_run"] {
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "dse" && e.name == name)
            .collect();
        assert_eq!(spans.len(), 9, "{name} spans");
        for span in spans {
            assert!(matches!(span.phase, TracePhase::Complete { .. }));
            assert_eq!(span.arg("stack"), Some("4x4"));
            assert!(span.arg("area").is_some() && span.arg("family").is_some(), "{span:?}");
        }
    }

    // Tracing is observational: the frontier matches the untraced run.
    let untraced = run_dse(&Executor::default(), &DseOptions {
        jobs: 1,
        settings: micro(),
        space: AxisSpace::tiny_grid(),
    });
    let frontier = std::fs::read_to_string(dir.join("dse_frontier.jsonl")).expect("frontier");
    assert_eq!(frontier, untraced.artifact(true).to_jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}
