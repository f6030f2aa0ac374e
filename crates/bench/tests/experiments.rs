//! Tier-1 tests for the experiment library: settings parsing, catalogue
//! integrity, artifact shape, and rerun determinism on cheap experiments.

use vs_bench::{Executor, ExperimentId, RunSettings};

// ---------------------------------------------------------------------------
// VS_BENCH_SCALE / VS_BENCH_MAX_CYCLES handling (pure parser — the env-var
// readers call straight into it, and the `sweep show` subprocess tests below
// cover the wiring without racing on process-global env state).
// ---------------------------------------------------------------------------

#[test]
fn settings_parse_accepts_valid_overrides() {
    let s = RunSettings::parse(Some("0.5"), Some("1000")).unwrap();
    assert_eq!(s.workload_scale, 0.5);
    assert_eq!(s.max_cycles, 1000);
    // Whitespace is tolerated.
    let s = RunSettings::parse(Some(" 0.25 "), Some(" 42 ")).unwrap();
    assert_eq!(s.workload_scale, 0.25);
    assert_eq!(s.max_cycles, 42);
    // Absent vars keep the defaults.
    assert_eq!(RunSettings::parse(None, None).unwrap(), RunSettings::default());
}

#[test]
fn settings_parse_rejects_malformed_scale() {
    for bad in ["abc", "", "0", "-0.1", "NaN", "inf", "-inf", "1e400"] {
        let err = RunSettings::parse(Some(bad), None)
            .expect_err(&format!("accepted VS_BENCH_SCALE={bad:?}"));
        let msg = err.to_string();
        assert!(msg.contains("VS_BENCH_SCALE"), "error must name the var: {msg}");
        assert!(msg.contains(bad), "error must echo the value: {msg}");
    }
}

#[test]
fn settings_parse_rejects_malformed_max_cycles() {
    for bad in ["abc", "", "0", "-5", "1.5", "0x10"] {
        let err = RunSettings::parse(None, Some(bad))
            .expect_err(&format!("accepted VS_BENCH_MAX_CYCLES={bad:?}"));
        let msg = err.to_string();
        assert!(msg.contains("VS_BENCH_MAX_CYCLES"), "error must name the var: {msg}");
    }
}

/// `sweep show <id>`, running `sweep show table1`.
fn show_table1() -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(["show", "table1"]);
    cmd
}

/// `sweep show` rejects a malformed env override loudly (exit 2, error on
/// stderr naming the variable) instead of silently using the default.
#[test]
fn show_rejects_malformed_env() {
    let out = show_table1()
        .env("VS_BENCH_SCALE", "not-a-number")
        .output()
        .expect("run sweep show table1");
    assert_eq!(out.status.code(), Some(2), "must exit 2 on bad env");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("VS_BENCH_SCALE") && stderr.contains("not-a-number"),
        "stderr must name the bad variable and value, got: {stderr}"
    );
}

#[test]
fn show_rejects_malformed_max_cycles_env() {
    let out = show_table1()
        .env("VS_BENCH_MAX_CYCLES", "0")
        .output()
        .expect("run sweep show table1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("VS_BENCH_MAX_CYCLES"), "got: {stderr}");
}

// ---------------------------------------------------------------------------
// Catalogue integrity.
// ---------------------------------------------------------------------------

#[test]
fn catalogue_names_are_unique_and_roundtrip() {
    let mut names: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.name()).collect();
    assert_eq!(names.len(), 20);
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 20, "duplicate experiment names");
    for id in ExperimentId::ALL {
        assert_eq!(ExperimentId::from_name(id.name()), Some(id));
    }
    assert_eq!(ExperimentId::from_name("nope"), None);
}

// ---------------------------------------------------------------------------
// Artifact shape + determinism on cheap experiments (the full catalogue is
// covered by the tier-2 golden suite).
// ---------------------------------------------------------------------------

#[test]
fn experiment_artifact_has_manifest_and_metrics_and_roundtrips() {
    let settings = RunSettings::tiny_profile();
    let out = ExperimentId::Fig9.run(&Executor::default(), &settings);
    let manifest = out.artifact.manifest().expect("manifest is first event");
    assert_eq!(manifest.benchmark, "fig9");
    assert_eq!(manifest.seed, settings.seed);
    assert_eq!(manifest.workload_scale, settings.workload_scale);
    assert_eq!(manifest.max_cycles, settings.max_cycles);
    let metrics = out.artifact.metrics().expect("metrics event present");
    assert!(!metrics.gauges.is_empty());
    // The artifact survives its own JSONL writer/parser.
    let back = vs_telemetry::RunArtifact::parse_jsonl(&out.artifact.to_jsonl()).unwrap();
    assert_eq!(back, out.artifact);
    // Base experiment artifacts carry no wall-time events by construction.
    assert!(out.artifact.events.iter().all(|e| !e.is_wall_time()));
}

#[test]
fn rerun_is_deterministic() {
    let settings = RunSettings::tiny_profile();
    let a = ExperimentId::Fig9.run(&Executor::default(), &settings);
    let b = ExperimentId::Fig9.run(&Executor::default(), &settings);
    assert_eq!(a.text, b.text);
    assert_eq!(
        a.artifact.deterministic_jsonl(),
        b.artifact.deterministic_jsonl()
    );
}

#[test]
fn show_stdout_matches_library_text() {
    let settings = RunSettings::tiny_profile();
    let lib = ExperimentId::Table1.run(&Executor::default(), &settings);
    let out = show_table1()
        .env("VS_BENCH_SCALE", settings.workload_scale.to_string())
        .env("VS_BENCH_MAX_CYCLES", settings.max_cycles.to_string())
        .output()
        .expect("run sweep show table1");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), lib.text);
}
