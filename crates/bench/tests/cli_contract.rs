//! Tier-1 CLI usage contract, checked against the real binaries: a
//! duplicated flag, an empty `--flag=` value, or a flag the binary does not
//! declare is a usage error (exit 2, stderr names the flag), never a
//! silent last-wins, empty-string, or ignored config. Each probe exits in argument parsing, long before any
//! co-simulation work, so the whole matrix is cheap.

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
