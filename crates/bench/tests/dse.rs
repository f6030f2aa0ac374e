//! Tier-1: the dse driver's determinism matrix, crash recovery, and shared
//! runs. A 64-point grid produces bit-identical frontier artifacts
//! whatever the worker count, and `--resume` after
//! an injected torn write (plus a tampered point cache) recomputes exactly
//! the lost points and converges to the undisturbed bytes. On a 128-point
//! grid the shared runs, stepped in lockstep lanes, reproduce the
//! per-point oracle bit for bit, and the traced binary spans each executed
//! run once.
//!
//! The chaos phases share one `#[test]` on purpose: the chaos plan is
//! process-wide and the harness runs a binary's `#[test]` functions
//! concurrently — splitting them up would race the global state. The
//! other tests neither journal nor write artifacts in this process, so
//! the plan never reaches them.

use std::path::PathBuf;
use std::process::Command;

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosPlan};
use vs_bench::dse::{evaluate_point, run_dse, DseOptions};
use vs_bench::journal::{load_dse_resume, point_cache_rel};
use vs_bench::space::AxisSpace;
use vs_bench::RunSettings;
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

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-dse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dse_artifacts_are_schedule_invariant_and_resume_converges() {
    assert_eq!(grid().len(), 64);

    // Phase 1 — undisturbed reference: one worker.
    clear_chaos_plan();
    let reference = run_dse(&DseOptions {
        jobs: 1,
        settings: micro(),
        space: grid(),
        ..DseOptions::default()
    });
    assert_eq!(reference.enumerated, 64);
    assert_eq!(reference.rows.len(), 64, "all 64 points are SuiteKey-unique");
    assert_eq!(reference.evaluated, 64);
    assert!(reference.rows.iter().any(|r| r.on_frontier));
    let ref_bytes = reference.artifact(true).to_jsonl();

    // Phase 2 — determinism matrix: more workers reorder the schedule but
    // never the bytes.
    for jobs in [2, 8] {
        let run = run_dse(&DseOptions {
            jobs,
            settings: micro(),
            space: grid(),
            ..DseOptions::default()
        });
        assert_eq!(run.artifact(true).to_jsonl(), ref_bytes, "artifact drifted at jobs={jobs}");
    }

    // Phase 3 — a journaled run with one point-cache write torn mid-byte
    // (simulated SIGKILL between cache write and journal append).
    let dir = tmp("resume");
    let settings = micro();
    let points = grid().points();
    let torn_key = points[17].suite_key(&settings);
    install_chaos_plan(ChaosPlan {
        seed: 7,
        tasks: vec![],
        torn_writes: vec![format!("{}.json", torn_key.cache_dir())],
    });
    let chaos_run = run_dse(&DseOptions {
        jobs: 2,
        settings,
        space: grid(),
        journal_dir: Some(dir.clone()),
        ..DseOptions::default()
    });
    clear_chaos_plan();
    assert_eq!(chaos_run.artifact(true).to_jsonl(), ref_bytes);

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
    let state = load_dse_resume(&dir).expect("journal replays");
    assert_eq!(state.damaged, 1, "exactly the tampered cache is damaged");
    assert_eq!(state.skipped_lines, 0);
    assert_eq!(state.verified.len(), 62);
    assert!(!state.verified.contains_key(&torn_key.to_hex()));
    assert!(!state.verified.contains_key(&tampered_key.to_hex()));

    // Phase 4 — resume: exactly the two lost points recompute, executing
    // only the runs they read (at different areas they share neither
    // run), and the artifact converges to the undisturbed bytes.
    let resumed = run_dse(&DseOptions {
        jobs: 2,
        settings,
        space: grid(),
        journal_dir: Some(dir.clone()),
        preloaded: state.verified,
    });
    assert_eq!(resumed.replayed, 62);
    assert_eq!(resumed.evaluated, 2, "only the torn and tampered points rerun");
    assert_ne!(points[3].area, points[17].area);
    assert_eq!((resumed.pde_runs, resumed.worst_case_runs), (2, 2));
    assert_eq!(resumed.artifact(true).to_jsonl(), ref_bytes);

    // The healed journal now verifies everything.
    let healed = load_dse_resume(&dir).expect("journal replays");
    assert_eq!(healed.verified.len(), 64);
    assert_eq!(healed.damaged, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every axis but workload at two values: 2 stacks x 2 areas x 2 families
/// x 2 thresholds x 2 latencies x 2 weight mixes x 2 detectors.
const ORACLE_GRID: &str = "stack=2x8|4x4,area=0.1|1.72,pds=cross|circuit,vth=0.88|0.9,\
     latency=30|120,weights=1:0:0|0.4:0.2:0.4,detector=oddd|cpm";

#[test]
fn shared_runs_match_the_per_point_oracle() {
    let space: AxisSpace = ORACLE_GRID.parse().expect("grid spec");
    assert_eq!(space.len(), 128);
    // PDE: per (stack, area), one circuit run plus one cross run per
    // (latency, detector) = 4 x 5. Worst case: per (stack, area), one
    // circuit run plus one cross run per controller setting = 4 x 17.
    let expected_runs = (20, 68);

    let oracle: Vec<_> = space
        .points()
        .iter()
        .map(|p| evaluate_point(p, &micro(), SolverWorkspace::new()).0)
        .collect();
    for jobs in [1, 8] {
        let shared = run_dse(&DseOptions {
            jobs,
            settings: micro(),
            space: space.clone(),
            ..DseOptions::default()
        });
        assert_eq!(shared.evaluated, 128);
        assert_eq!((shared.pde_runs, shared.worst_case_runs), expected_runs);
        // The runs stepped in lockstep: most lane-solves went through
        // multi-lane groups, so a fallback to singleton solves fails here.
        let lanes = shared.batch_stats;
        assert!(lanes.multi_lane_groups > 0, "jobs={jobs}: {lanes:?}");
        assert!(
            lanes.multi_lane_solves > lanes.singleton_solves,
            "jobs={jobs}: {lanes:?}"
        );
        for ((point, row), m) in shared.points.iter().zip(&shared.rows).zip(&oracle) {
            let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
            assert!(
                bits(row.pde, m.pde) && bits(row.worst_v, m.worst_v) && bits(row.final_v, m.final_v),
                "{point} at jobs={jobs}: {row:?} vs oracle {m:?}"
            );
        }
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

    let text = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let (events, metrics) = parse_chrome_trace(&text).expect("trace parses");
    let metrics = metrics.expect("trace embeds the executor metrics");
    assert_eq!(metrics.counter("dse.pde_runs"), Some(9));
    assert_eq!(metrics.counter("dse.worst_case_runs"), Some(9));
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
    let untraced = run_dse(&DseOptions {
        jobs: 1,
        settings: micro(),
        space: AxisSpace::tiny_grid(),
        ..DseOptions::default()
    });
    let frontier = std::fs::read_to_string(dir.join("dse_frontier.jsonl")).expect("frontier");
    assert_eq!(frontier, untraced.artifact(true).to_jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}
