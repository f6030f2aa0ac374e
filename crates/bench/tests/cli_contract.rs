//! Tier-1 CLI usage contract, checked against the real binaries: a
//! duplicated flag, an empty `--flag=` value, or a flag the binary does not
//! declare is a usage error (exit 2, stderr names the flag), never a
//! silent last-wins, empty-string, or ignored config, and a design space the
//! GPU cannot hold or a malformed `VS_BENCH_*` value is rejected the same
//! way. Each probe exits in argument parsing, long before any co-simulation
//! work, so the whole matrix is cheap.

use std::process::Command;

/// The long-running drivers whose flag surface the serve/sweep/dse/fault
/// campaign walkthroughs lean on.
const BINARIES: [(&str, &str); 4] = [
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("fault_campaign", env!("CARGO_BIN_EXE_fault_campaign")),
    ("dse", env!("CARGO_BIN_EXE_dse")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
];

/// Runs `bin args`, returning (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn duplicated_flags_are_usage_errors_in_every_binary() {
    // `--progress` is the one flag all four drivers share.
    for (name, bin) in BINARIES {
        let args = ["--progress", "off", "--progress=json"];
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("--progress given more than once"),
            "{name} {args:?} must name the duplicated flag, stderr: {stderr}"
        );
    }
    // Binary-specific surfaces: spelled, `=`-joined, and boolean repeats.
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_sweep"), &["--jobs", "2", "--jobs", "8"][..], "--jobs"),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--jobs", "2", "--jobs", "8"][..], "--jobs"),
        (env!("CARGO_BIN_EXE_dse"), &["--seed", "7", "--seed=9"][..], "--seed"),
        (env!("CARGO_BIN_EXE_serve"), &["--trace", "--trace"][..], "--trace"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} given more than once")),
            "{args:?} must name the duplicated flag, stderr: {stderr}"
        );
    }
}

#[test]
fn empty_flag_values_are_usage_errors_in_every_binary() {
    for (name, bin) in BINARIES {
        for args in [&["--progress="][..], &["--progress", ""][..]] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
            assert!(
                stderr.contains("--progress needs a non-empty value"),
                "{name} {args:?} must name the empty flag, stderr: {stderr}"
            );
        }
    }
    // Binary-specific value flags keep the same contract.
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_sweep"), &["--out="][..], "--out"),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--jobs="][..], "--jobs"),
        (env!("CARGO_BIN_EXE_dse"), &["--seed", ""][..], "--seed"),
        (env!("CARGO_BIN_EXE_serve"), &["--store="][..], "--store"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a non-empty value")),
            "{args:?} must name the empty flag, stderr: {stderr}"
        );
    }
}

#[test]
fn removed_lane_flag_is_rejected() {
    // Every sweep and serve claim runs one scenario; no binary takes a
    // lane width. The flag comes before `--help`, so a binary that still
    // accepted it would print help and exit 0 instead of starting a run.
    for (name, bin) in [
        ("sweep", env!("CARGO_BIN_EXE_sweep")),
        ("serve", env!("CARGO_BIN_EXE_serve")),
        ("dse", env!("CARGO_BIN_EXE_dse")),
    ] {
        let args = ["--batch-lanes", "4", "--help"];
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("unknown flag \"--batch-lanes\""),
            "{name} {args:?} must name the unknown flag, stderr: {stderr}"
        );
    }
}

#[test]
fn dse_rejects_a_stack_that_does_not_arrange_the_gpus_sms() {
    // The GPU has 16 SMs; a 2x4 stack holds 8. The space parser rejects it
    // before any run starts, instead of a controller panicking mid-run.
    let args = ["--space", "stack=2x4", "--profile", "tiny", "--progress", "off"];
    let (code, stderr) = run(env!("CARGO_BIN_EXE_dse"), &args);
    assert_eq!(code, 2, "dse {args:?} must exit 2, stderr: {stderr}");
    assert!(
        stderr.contains("stack=2x4") && stderr.contains("16 SMs"),
        "dse {args:?} must name the word and the SM count, stderr: {stderr}"
    );
}

#[test]
fn malformed_env_profile_is_rejected_before_any_run() {
    // Every driver whose settings default to the env profile resolves it
    // before it starts work: the run never falls back to the default scale,
    // writes no output directory or store, and prints nothing on stdout.
    let dir = std::env::temp_dir().join(format!("vs-bench-cli-env-{}", std::process::id()));
    let out = dir.join("out");
    let out_arg = out.to_str().expect("utf-8 temp path");
    let probes: [(&str, &str, &[&str]); 4] = [
        (
            "sweep run",
            env!("CARGO_BIN_EXE_sweep"),
            &["run", "--out", out_arg],
        ),
        ("dse", env!("CARGO_BIN_EXE_dse"), &["--out", out_arg]),
        (
            "serve --stdio",
            env!("CARGO_BIN_EXE_serve"),
            &["--stdio", "--store", out_arg],
        ),
        ("fault_campaign", env!("CARGO_BIN_EXE_fault_campaign"), &[]),
    ];
    for (name, bin, args) in probes {
        let output = Command::new(bin)
            .args(args)
            .env("VS_BENCH_SCALE", "not-a-number")
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains("VS_BENCH_SCALE") && stderr.contains("not-a-number"),
            "{name} must name the bad variable and value, stderr: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{name} printed before rejecting its settings"
        );
        assert!(
            !out.exists(),
            "{name} created {} before rejecting its settings",
            out.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
