//! Tier-1 CLI usage contract, checked against the real binaries: a
//! duplicated flag, an empty `--flag=` value, a `--progress` mode other
//! than `plain` or `off`, or a flag the binary does not declare is a usage
//! error (exit 2, stderr names the flag), never a silent last-wins,
//! empty-string, or ignored config, and a design space the GPU cannot hold
//! or a malformed `VS_BENCH_*` value is rejected the same way. Each probe
//! exits in argument parsing, long before any co-simulation work, so the
//! whole matrix is cheap.
//!
//! The golden-diff contract is checked the same way, on the three entry
//! points that diff artifacts: `sweep diff-baseline` (two directories or
//! two files), `sweep run --diff` and `dse --diff`. Each exits 0 within
//! tolerance and 1 on drift, naming the key; 1, naming the file, when a
//! candidate artifact is missing or unparseable or a baseline artifact is
//! unparseable; and 2 when the baseline path does not exist. `sweep run
//! --diff` and `dse --diff` check the baseline and the tolerance file
//! before they simulate, so a missing one exits 2 with nothing written.
//! The runs behind them are the constant experiments and one dse point at
//! the tiny profile, a fraction of a second each.
//!
//! `serve --stdio --trace` writes its trace into its store directory when
//! the session ends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use vs_bench::serve::code_fingerprint;
use vs_telemetry::json::{self, Json};
use vs_telemetry::parse_chrome_trace;

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
        let args = ["--progress", "off", "--progress=plain"];
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
fn progress_accepts_only_plain_or_off() {
    // Progress is plain narration or nothing: no binary has a JSON mode.
    for (name, bin) in BINARIES {
        let args = ["--progress", "json"];
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("\"json\"") && stderr.contains("plain or off"),
            "{name} {args:?} must name the mode and the accepted ones, stderr: {stderr}"
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

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const DSE: &str = env!("CARGO_BIN_EXE_dse");
const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// The checked-in golden tree.
fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Runs `bin args`, returning (exit code, stdout then stderr).
fn run_all(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code().expect("exit code"),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

/// Asserts that `bin args` exits `code` and that its output holds `needle`.
fn expect(bin: &str, args: &[&str], code: i32, needle: &str) {
    let (got, output) = run_all(bin, args);
    assert_eq!(got, code, "{args:?} must exit {code}, output:\n{output}");
    assert!(output.contains(needle), "{args:?} must name {needle:?}, output:\n{output}");
}

/// Puts a `9` in front of the value of the first key in `path` that
/// starts with `key`.
fn perturb(path: &Path, key: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let at = text.find(&format!("\"{key}")).unwrap_or_else(|| panic!("no {key} in {}", path.display()));
    let value = at + text[at..].find("\":").expect("a value") + 2;
    std::fs::write(path, format!("{}9{}", &text[..value], &text[value..])).unwrap();
}

/// Cuts `path` to half its bytes, mid-line.
fn truncate(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
}

#[test]
fn diff_baseline_checks_the_manifest_set_of_a_store_or_one_file_pair() {
    let dir = scratch("diff-baseline");
    let copy = dir.join("copy");
    std::fs::create_dir_all(&copy).unwrap();

    // The manifest declares exactly the artifacts a listing of the golden
    // directory finds once the manifest, the artifacts that other binaries
    // write, and the journal are left out.
    let manifest = std::fs::read_to_string(goldens().join("manifest.jsonl")).unwrap();
    let mut declared: Vec<String> = manifest
        .lines()
        .map(|line| json::parse(line).expect("manifest line"))
        .filter_map(|v| v.get("artifact").and_then(Json::as_str).map(str::to_string))
        .collect();
    declared.sort();
    let mut listed: Vec<String> = std::fs::read_dir(goldens())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| {
            name.strip_suffix(".jsonl").is_some_and(|stem| {
                !["manifest", "fault_campaign", "dse_frontier", "journal"].contains(&stem)
            })
        })
        .collect();
    listed.sort();
    assert_eq!(declared, listed);
    assert_eq!(declared.len(), 20);
    for file in declared.iter().map(String::as_str).chain(["manifest.jsonl"]) {
        std::fs::copy(goldens().join(file), copy.join(file)).unwrap();
    }

    // Directories: the copy passes; each way of breaking it fails.
    let golden_dir = goldens();
    let pair = [s(&golden_dir), s(&copy)];
    expect(SWEEP, &["diff-baseline", pair[0], pair[1]], 0, "\"artifacts\":20,\"failed\":0");
    let fig8 = copy.join("fig8.jsonl");
    perturb(&fig8, "pde_avg{pds=ivr}");
    expect(SWEEP, &["diff-baseline", pair[0], pair[1]], 1, "pde_avg{pds=ivr}");
    truncate(&fig8);
    expect(SWEEP, &["diff-baseline", pair[0], pair[1]], 1, s(&fig8));
    std::fs::remove_file(&fig8).unwrap();
    expect(SWEEP, &["diff-baseline", pair[0], pair[1]], 1, s(&fig8));
    // An unparseable baseline artifact fails the same way.
    std::fs::copy(goldens().join("fig8.jsonl"), &fig8).unwrap();
    let torn_base = dir.join("torn-base");
    std::fs::create_dir_all(&torn_base).unwrap();
    for file in ["manifest.jsonl", "fig8.jsonl"] {
        std::fs::copy(copy.join(file), torn_base.join(file)).unwrap();
    }
    let torn_fig8 = torn_base.join("fig8.jsonl");
    truncate(&torn_fig8);
    expect(SWEEP, &["diff-baseline", s(&torn_base), s(&copy)], 1, s(&torn_fig8));
    let nowhere = dir.join("nowhere");
    expect(SWEEP, &["diff-baseline", s(&nowhere), s(&copy)], 2, "nowhere");

    // One file pair.
    let golden_fig8 = goldens().join("fig8.jsonl");
    let files = [s(&golden_fig8), s(&fig8)];
    expect(SWEEP, &["diff-baseline", files[0], files[1]], 0, "fig8.jsonl");
    perturb(&fig8, "pde_avg{pds=ivr}");
    expect(SWEEP, &["diff-baseline", files[0], files[1]], 1, "pde_avg{pds=ivr}");
    truncate(&fig8);
    expect(SWEEP, &["diff-baseline", files[0], files[1]], 1, s(&fig8));
    std::fs::remove_file(&fig8).unwrap();
    expect(SWEEP, &["diff-baseline", files[0], files[1]], 1, s(&fig8));
    std::fs::copy(&golden_fig8, &fig8).unwrap();
    expect(SWEEP, &["diff-baseline", s(&torn_fig8), files[1]], 1, s(&torn_fig8));
    let missing = dir.join("missing.jsonl");
    expect(SWEEP, &["diff-baseline", s(&missing), files[1]], 2, "missing.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_run_diffs_its_output_against_a_golden_tree() {
    let dir = scratch("sweep-diff");
    let (golden, golden3, out) = (dir.join("a"), dir.join("a3"), dir.join("b"));
    let run = ["run", "--profile", "tiny", "--progress", "off", "--only"];
    for (only, tree) in [("table1,fig5", &golden), ("table1,fig3,fig5", &golden3)] {
        let args = [&run[..], &[only, "--deterministic", "--out", s(tree)]].concat();
        expect(SWEEP, &args, 0, "exit 0");
    }
    let diff = |tree: &Path, code: i32, needle: &str| {
        let args = [&run[..], &["table1,fig5", "--out", s(&out), "--diff", s(tree)]].concat();
        expect(SWEEP, &args, code, needle);
    };
    diff(&golden, 0, "fig5.jsonl");
    // A golden artifact the run does not write is a missing candidate;
    // a stale unparseable file in its place fails the same way.
    let fig3 = out.join("fig3.jsonl");
    diff(&golden3, 1, s(&fig3));
    std::fs::write(&fig3, b"{\"type\":").unwrap();
    diff(&golden3, 1, s(&fig3));
    let fig5 = golden.join("fig5.jsonl");
    let blessed = std::fs::read(&fig5).unwrap();
    perturb(&fig5, "actuation_cycles{mech=dfs}");
    diff(&golden, 1, "actuation_cycles{mech=dfs}");
    std::fs::write(&fig5, &blessed).unwrap();
    truncate(&fig5);
    diff(&golden, 1, s(&fig5));
    // A missing golden or tolerance file exits 2 before the sweep runs:
    // a fresh --out holds no manifest afterwards.
    let fresh = dir.join("fresh");
    let early = |extra: &[&str], needle: &str| {
        let args = [&run[..], &["table1,fig5", "--out", s(&fresh)], extra].concat();
        expect(SWEEP, &args, 2, needle);
        assert!(
            !fresh.join("manifest.jsonl").exists(),
            "{extra:?} ran the sweep first"
        );
    };
    early(&["--diff", s(&dir.join("nowhere"))], "nowhere");
    let no_spec = dir.join("no-tolerances.json");
    early(
        &["--diff", s(&golden), "--tolerances", s(&no_spec)],
        "no-tolerances.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_diffs_its_frontier_against_a_golden_file_or_directory() {
    let dir = scratch("dse-diff");
    let (golden, out) = (dir.join("a"), dir.join("b"));
    let run = ["--space", "area=0.2", "--profile", "tiny", "--deterministic", "--progress", "off"];
    expect(DSE, &[&run[..], &["--out", s(&golden)]].concat(), 0, "exit 0");
    let diff = |against: &Path, code: i32, needle: &str| {
        let args = [&run[..], &["--out", s(&out), "--diff", s(against)]].concat();
        expect(DSE, &args, code, needle);
    };
    let frontier = golden.join("dse_frontier.jsonl");
    diff(&golden, 0, "exit 0");
    diff(&frontier, 0, "exit 0");
    perturb(&frontier, "dse.pde{");
    diff(&golden, 1, "dse.pde{");
    truncate(&frontier);
    diff(&frontier, 1, s(&frontier));
    // A missing golden or tolerance file exits 2 before dse runs: a fresh
    // --out holds no frontier afterwards.
    let fresh = dir.join("fresh");
    let early = |extra: &[&str], needle: &str| {
        let args = [&run[..], &["--out", s(&fresh)], extra].concat();
        expect(DSE, &args, 2, needle);
        assert!(
            !fresh.join("dse_frontier.jsonl").exists(),
            "{extra:?} ran dse first"
        );
    };
    early(&["--diff", s(&dir.join("nowhere"))], "nowhere");
    let no_spec = dir.join("no-tolerances.json");
    early(
        &["--diff", s(&golden), "--tolerances", s(&no_spec)],
        "no-tolerances.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_writes_its_trace_into_the_store() {
    let store = scratch("serve-trace");
    let mut child = Command::new(SERVE)
        .args([
            "--stdio",
            "--trace",
            "--progress",
            "off",
            "--store",
            s(&store),
        ])
        .env("VS_BENCH_SCALE", "0.02")
        .env("VS_BENCH_MAX_CYCLES", "8000")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            b"{\"id\":\"p\",\"kind\":\"point\",\"point\":\"area=0.2\"}\n\
              {\"id\":\"z\",\"kind\":\"shutdown\"}\n",
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let trace = store.join(code_fingerprint()).join("trace.json");
    let text = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("{}: {e}; stderr: {stderr}", trace.display()));
    let (events, metrics) = parse_chrome_trace(&text).expect("trace parses");
    // One task span per scenario of the point's suite, and the executor's
    // run counters under their trace names.
    assert_eq!(events.iter().filter(|e| e.name == "task").count(), 12);
    let metrics = metrics.expect("the trace embeds the executor metrics");
    assert_eq!(metrics.counter("executor.groups"), Some(12));
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn the_sweep_diff_subcommand_is_gone() {
    // `diff-baseline` takes a file pair too, so `diff` is no subcommand:
    // the default `run` rejects it as a stray argument.
    let (code, stderr) = run(SWEEP, &["diff", "a", "b"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unexpected argument \"diff\""), "stderr: {stderr}");
}
