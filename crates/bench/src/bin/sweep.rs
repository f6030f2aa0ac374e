//! The parallel experiment runner and golden-artifact diff tool.
//!
//! ```text
//! sweep [run] [--jobs N] [--out DIR] [--only id,...]
//!             [--profile env|golden|tiny] [--seed N] [--deterministic]
//!             [--resume DIR] [--diff GOLDEN_DIR] [--tolerances FILE]
//!             [--trace] [--progress plain|off]
//! sweep show [id,...] [--profile env|golden|tiny] [--seed N]
//! sweep diff-baseline <baseline dir|file> <candidate dir|file> [--tolerances FILE]
//! sweep report <dir>
//! sweep list
//! ```
//!
//! `run` executes the catalogue across a worker pool, writes one JSONL
//! artifact per experiment plus `manifest.jsonl` into `--out` (default
//! `target/sweep`), and checks the EXPERIMENTS.md headline claims. With
//! `--diff GOLDEN_DIR` it then runs `diff-baseline GOLDEN_DIR <out>` and
//! prints the verdict's rendering. `show`
//! runs the named experiments (the whole catalogue when none is named) and
//! prints their text on stdout, writing no files; with more than one, each
//! text follows a `################ <id> ################` header.
//!
//! Crash safety: artifacts land atomically (tmp + rename) and every
//! completed scenario run is appended to `<out>/journal.jsonl` with a
//! content checksum. `--resume DIR` replays that journal — verified
//! scenario reports are installed instead of recomputed, only missing,
//! torn, or checksum-mismatched scenarios run again, and every experiment
//! is rebuilt from them, converging to the same bytes an undisturbed run
//! produces. A resume writes into DIR, so `--out` beside it is a usage
//! error. Scenario tasks that keep failing are
//! retried with backoff and then quarantined: the sweep completes
//! *degraded*, with a `degraded` manifest section naming each lost
//! (suite, scenario) and its error chain.
//!
//! Observability: `--trace` records executor spans (task attempts,
//! backoffs, pool rebuilds, journal replays, artifact writes) and writes a
//! Chrome/Perfetto `trace.json` into `--out` — load it at `ui.perfetto.dev`
//! or `chrome://tracing`. Tracing records wall times but never touches
//! artifact bytes. `sweep report DIR` joins a finished run's manifest,
//! journal, and trace into per-suite wall time, slowest scenarios
//! (p50/p95/max), retries, quarantines, and replay savings.
//! `sweep diff-baseline` compares two artifact stores, or two artifact
//! files, through the tolerance-aware metric differ and prints a
//! machine-readable verdict. Every golden diff (`diff-baseline`, `run
//! --diff`, `dse --diff`) fails the same way: a drifted metric, or a
//! missing or unparseable artifact, exits 1 naming the key or the file; a
//! baseline path that does not exist exits 2. `run --diff` checks its
//! baseline path and reads `--tolerances` before it simulates, so either
//! missing exits 2 at once, with no artifact written.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success — everything ran, claims and diffs passed |
//! | 1 | a headline claim or golden diff failed |
//! | 2 | environment/usage error (bad flag, malformed `VS_BENCH_*`, no such baseline, unwritable output) |
//! | 3 | internal error — a panic outside every isolation boundary (structured JSONL on stderr) |
//! | 4 | degraded — the sweep completed but quarantined tasks and/or failed experiments (see the manifest) |

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vs_bench::claims::{check_claims, ClaimResult};
use vs_bench::cli::{ArgSpec, CommandSpec, PROFILE_FLAG, SEED_FLAG};
use vs_bench::journal::Replay;
use vs_bench::report::{diff_baseline, RunReport};
use vs_bench::sweep::{run_sweep, SweepOptions};
use vs_bench::{Executor, ExperimentId};
use vs_telemetry::{RunArtifact, ToleranceSpec};

const DEFAULT_TOLERANCES: &str = "goldens/tolerances.json";

const TOLERANCES_FLAG: ArgSpec = ArgSpec {
    name: "--tolerances",
    value: Some("FILE"),
    help: "per-metric tolerance spec for diffs (default goldens/tolerances.json)",
};

const RUN_SPEC: CommandSpec = CommandSpec {
    prog: "sweep run",
    about: "Run the experiment catalogue across a worker pool and check headline claims",
    common: &["--jobs", "--out", "--resume", "--trace", "--progress"],
    extras: &[
        ArgSpec { name: "--only", value: Some("id,..."), help: "run only the named experiments (see `sweep list`)" },
        PROFILE_FLAG,
        SEED_FLAG,
        ArgSpec { name: "--deterministic", value: None, help: "wall-time-free artifacts, no journal (golden mode)" },
        ArgSpec { name: "--diff", value: Some("GOLDEN"), help: "diff the output against a blessed tree (as diff-baseline)" },
        TOLERANCES_FLAG,
    ],
    positionals: &[],
};

const SHOW_SPEC: CommandSpec = CommandSpec {
    prog: "sweep show",
    about: "Print experiments' text (the whole catalogue when none is named)",
    common: &[],
    extras: &[PROFILE_FLAG, SEED_FLAG],
    positionals: &["ID,..."],
};

const DIFF_BASELINE_SPEC: CommandSpec = CommandSpec {
    prog: "sweep diff-baseline",
    about: "Regression gate: compare two artifact stores (or two artifact files), machine-readable verdict on stdout",
    common: &[],
    extras: &[TOLERANCES_FLAG],
    positionals: &["BASELINE", "CANDIDATE"],
};

const REPORT_SPEC: CommandSpec = CommandSpec {
    prog: "sweep report",
    about: "Join a finished run's manifest, journal, and trace into a wall-time report",
    common: &[],
    extras: &[],
    positionals: &["DIR"],
};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    vs_bench::install_panic_hook("sweep");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for id in ExperimentId::ALL {
                println!(
                    "{:22} {}",
                    id.name(),
                    if id.settings_dependent() {
                        "settings-dependent"
                    } else {
                        "constant"
                    }
                );
            }
            ExitCode::SUCCESS
        }
        Some("diff-baseline") => diff_baseline_main(&args[1..]),
        Some("report") => report_main(&args[1..]),
        Some("show") => show_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        _ => run_main(&args),
    }
}

/// The one-line end-of-run summary tying the exit code to its meaning.
fn summarize(code: u8, detail: &str) {
    eprintln!("[sweep] exit {code}: {detail}");
}

fn parse_only(raw: &str) -> Vec<ExperimentId> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|name| {
            ExperimentId::from_name(name.trim())
                .unwrap_or_else(|| fail(&format!("unknown experiment {name:?} (see `sweep list`)")))
        })
        .collect()
}

/// The tolerance spec at `path`, else [`DEFAULT_TOLERANCES`] when that file
/// is present, else exact comparison.
fn load_tolerances(path: Option<&str>) -> ToleranceSpec {
    let path = match path {
        Some(path) => path,
        None if Path::new(DEFAULT_TOLERANCES).exists() => DEFAULT_TOLERANCES,
        None => return ToleranceSpec::exact(),
    };
    vs_bench::report::load_tolerances(path).unwrap_or_else(|e| fail(&e))
}

/// `sweep show [id,...]`: each experiment's text on stdout, nothing
/// written to disk.
fn show_main(args: &[String]) -> ExitCode {
    let parsed = SHOW_SPEC.parse_or_exit(args);
    let result = run_sweep(
        &Executor::default(),
        &SweepOptions {
            jobs: 0,
            only: parsed.positionals.first().map(|ids| parse_only(ids)),
            settings: parsed.run_settings_or_exit(),
        },
    );
    for run in &result.runs {
        if result.runs.len() > 1 {
            println!("\n################ {} ################", run.id);
        }
        print!("{}", run.output.text);
    }
    if result.is_degraded() {
        summarize(4, "degraded — an experiment failed or a task was quarantined");
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}

fn run_main(args: &[String]) -> ExitCode {
    let parsed = RUN_SPEC.parse_or_exit(args);
    parsed.common.apply_observability();
    let out = match (&parsed.common.out, &parsed.common.resume) {
        (Some(_), Some(_)) => fail("--out and --resume are mutually exclusive"),
        // Resume targets the journaled directory itself: artifacts land
        // where the interrupted run left its verified work.
        (Some(dir), None) | (None, Some(dir)) => dir.clone(),
        (None, None) => PathBuf::from("target/sweep"),
    };
    let only: Option<Vec<ExperimentId>> = parsed.extra("--only").map(parse_only);
    let deterministic = parsed.has("--deterministic");
    let trace = parsed.common.trace;
    let settings = parsed.run_settings_or_exit();
    // The diff's inputs resolve before the run, so a mistyped golden or
    // tolerance path fails in milliseconds, not after the sweep.
    let diff = parsed.extra("--diff").map(|golden| {
        let golden = PathBuf::from(golden);
        if !golden.exists() {
            fail(&format!("baseline {} does not exist", golden.display()));
        }
        (golden, load_tolerances(parsed.extra("--tolerances")))
    });

    let mut replay = Replay::default();
    if let Some(dir) = &parsed.common.resume {
        replay = Replay::load(dir)
            .unwrap_or_else(|e| fail(&format!("cannot read journal in {}: {e}", dir.display())));
        let damaged = replay.scenarios.damaged;
        eprintln!(
            "[sweep] resume: {} scenario(s) verified, \
             {damaged} damaged entr{} to recompute, {} journal line(s) skipped",
            replay.scenarios.verified,
            if damaged == 1 { "y" } else { "ies" },
            replay.skipped_lines,
        );
    }
    // Golden (deterministic) trees carry no journal; every other run
    // journals completed work into the output directory for --resume.
    let exec = Executor::new((!deterministic).then(|| out.clone()), replay);
    exec.tracer().set_enabled(trace);
    let result = run_sweep(&exec, &SweepOptions { jobs: parsed.common.jobs, only, settings });
    let written = if deterministic {
        result.write_deterministic_to(&exec, &out)
    } else {
        result.write_to(&exec, &out)
    };
    if let Err(e) = written {
        fail(&format!("cannot write sweep to {}: {e}", out.display()));
    }
    if trace {
        match exec.write_trace(&out) {
            Ok(path) => eprintln!(
                "[sweep] trace -> {} (load at ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("[sweep] cannot write trace into {}: {e}", out.display()),
        }
    }
    eprintln!(
        "[sweep] {} experiments in {:.1}s on {} worker(s) -> {}",
        result.runs.len(),
        result.total_wall_s,
        result.jobs,
        out.display()
    );

    let artifacts: Vec<(ExperimentId, &RunArtifact)> = result
        .runs
        .iter()
        .map(|r| (r.id, &r.output.artifact))
        .collect();
    let claim_results = check_claims(&artifacts);
    let run_ids: Vec<ExperimentId> = result.runs.iter().map(|r| r.id).collect();
    let relevant: Vec<&ClaimResult> = claim_results
        .iter()
        .filter(|c| run_ids.contains(&c.claim.experiment))
        .collect();
    let mut ok = true;
    if relevant.is_empty() {
        println!("no headline claims cover the selected experiments");
    } else {
        println!("headline claims:");
        for c in &relevant {
            let shown = match c.value {
                Some(v) => format!("{v:.4}"),
                None => "missing".to_string(),
            };
            println!(
                "  {} {:28} {} in [{}, {}]  ({})",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim.name,
                shown,
                c.claim.lo,
                c.claim.hi,
                c.claim.paper
            );
            ok &= c.pass;
        }
    }

    if let Some((golden, spec)) = diff {
        let verdict = diff_baseline(&golden, &out, &spec).unwrap_or_else(|e| fail(&e));
        print!("{}", verdict.render());
        ok &= verdict.is_pass();
    }
    if result.is_degraded() {
        eprintln!(
            "[sweep] DEGRADED: {} quarantined task(s), {} failed experiment(s) \
             (see the manifest's degraded section); rerun with --resume {} once \
             the cause is fixed",
            result.quarantined.len(),
            result.runs.iter().filter(|r| r.error.is_some()).count(),
            out.display(),
        );
        summarize(4, "degraded — completed with quarantined tasks or failed experiments");
        return ExitCode::from(4);
    }
    if ok {
        summarize(0, "success — everything ran, claims and diffs passed");
        ExitCode::SUCCESS
    } else {
        summarize(1, "a headline claim or golden diff failed");
        ExitCode::FAILURE
    }
}

/// `sweep report <dir>`: the joined run report.
fn report_main(args: &[String]) -> ExitCode {
    let parsed = REPORT_SPEC.parse_or_exit(args);
    let [dir] = parsed.positionals.as_slice() else {
        eprintln!("error: expected a run directory");
        eprintln!("{}", REPORT_SPEC.usage());
        return ExitCode::from(2);
    };
    match RunReport::load(Path::new(dir)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// `sweep diff-baseline <baseline> <candidate>`: the regression gate, over
/// two directories or two files. Machine-readable verdict on stdout, human
/// rendering on stderr; exit 0 on pass, 1 on drift or a missing or
/// unparseable artifact, 2 when the baseline path is unusable.
fn diff_baseline_main(args: &[String]) -> ExitCode {
    let parsed = DIFF_BASELINE_SPEC.parse_or_exit(args);
    let [baseline, candidate] = parsed.positionals.as_slice() else {
        eprintln!("error: expected two paths");
        eprintln!("{}", DIFF_BASELINE_SPEC.usage());
        return ExitCode::from(2);
    };
    let (baseline, candidate) = (PathBuf::from(baseline), PathBuf::from(candidate));
    let spec = load_tolerances(parsed.extra("--tolerances"));
    let verdict = diff_baseline(&baseline, &candidate, &spec).unwrap_or_else(|e| fail(&e));
    println!("{}", verdict.to_json().to_string_compact());
    eprint!("{}", verdict.render());
    if verdict.is_pass() {
        summarize(0, "baseline diff passed — candidate within tolerance");
        ExitCode::SUCCESS
    } else {
        summarize(1, "baseline diff failed — an artifact drifted, or is missing or unparseable");
        ExitCode::FAILURE
    }
}
