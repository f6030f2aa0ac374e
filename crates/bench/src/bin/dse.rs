//! The design-space-exploration driver: thousands of configurations
//! through shared trunks and lockstep tails, with a Pareto-frontier
//! artifact.
//!
//! ```text
//! dse [--grid tiny|full|paper] [--space SPEC] [--jobs N]
//!     [--out DIR] [--resume DIR] [--profile env|golden|tiny] [--seed N]
//!     [--deterministic] [--trace] [--progress plain|off]
//!     [--diff GOLDEN] [--tolerances FILE]
//! ```
//!
//! Enumerates an axis space (`--grid full` is the built-in 1728-point
//! exploration; `--space "stack=4x4|8x2,area=0.1|0.2,latency=60"` builds a
//! custom one in the shared sweep grammar, unmentioned axes staying at the
//! paper point), evaluates every unique configuration through shared runs,
//! writes `dse_frontier.jsonl` into `--out` (default `target/dse`), prints
//! the frontier, and checks the executable frontier claims — notably that
//! the paper's 4×4 / 0.2× cross-layer design point is non-dominated.
//! Points share simulation runs, and the runs share trajectories: one
//! trunk per steady-load rig books its PDE runs and forks its worst-case
//! runs at the gate. Stderr reports, on the full grid at the golden
//! profile:
//!
//! ```text
//! [dse] runs: 162 pde + 882 worst-case for 1728 point(s)
//! [dse] lanes: 1814400 of 1852200 lane-solve(s) in multi-lane groups, 37800 alone, over 491400 shared step(s)
//! [dse] trunks: 18 trunk(s), 882 fork(s), 0 fallback(s); 1964700 lane-step(s) = 112500 trunk + 1852200 tail
//! ```
//!
//! `runs` counts the distinct runs computed; `lanes` splits the lockstep
//! tail steps into multi-lane groups and lone solves; `trunks` counts the
//! trunks, the worst-case runs that forked from one and those that fell
//! back to their full run, and the lane-steps taken, scalar trunk steps
//! plus lockstep tail steps. `--trace` spans each trunk and each run; the
//! spans and these lines carry the counts.
//!
//! Crash safety matches `sweep`: each trunk is one task on the same
//! executor, and a trunk that panics retries with seeded backoff. As a
//! trunk's task returns, each of its points lands atomically in a
//! `points/` cache and is journaled with a checksum; `--resume DIR`
//! replays verified metrics and recomputes only missing or damaged points,
//! converging to the same bytes an undisturbed run produces.
//! `--deterministic` writes the wall-time-free artifact goldens are
//! blessed in. `--diff GOLDEN` diffs the frontier file just written against
//! `GOLDEN` (a frontier file, or a directory holding `dse_frontier.jsonl`)
//! as `sweep diff-baseline` does, under `--tolerances` (default exact), and
//! prints the verdict's rendering. Both paths are checked before the
//! exploration runs: a missing golden or tolerance file exits 2 at once,
//! with no artifact written.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success — frontier claims and diffs passed |
//! | 1 | a frontier claim or golden diff failed (a drifted metric, an unparseable golden) |
//! | 2 | environment/usage error (bad flag, no such golden, unwritable output) |
//! | 3 | internal error: a trunk failed every attempt, or another panic (JSONL on stderr) |

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vs_bench::cli::{ArgSpec, CommandSpec, PROFILE_FLAG, SEED_FLAG};
use vs_bench::dse::{check_frontier_claims, run_dse, DseOptions, DseResult, FRONTIER_FILE};
use vs_bench::report::{diff_baseline, load_tolerances};
use vs_bench::shard::Preload;
use vs_bench::space::AxisSpace;
use vs_bench::{journal, Executor};
use vs_telemetry::ToleranceSpec;

const SPEC: CommandSpec = CommandSpec {
    prog: "dse",
    about: "Design-space exploration: evaluate a config grid and emit the Pareto frontier",
    common: &["--jobs", "--out", "--resume", "--trace", "--progress"],
    extras: &[
        ArgSpec { name: "--grid", value: Some("tiny|full|paper"), help: "built-in axis grid (default tiny; full = 1728 points)" },
        ArgSpec { name: "--space", value: Some("SPEC"), help: "custom axis space, e.g. stack=4x4|8x2,area=0.1|0.2" },
        PROFILE_FLAG,
        SEED_FLAG,
        ArgSpec { name: "--deterministic", value: None, help: "wall-time-free artifact, no journal (golden mode)" },
        ArgSpec { name: "--diff", value: Some("GOLDEN"), help: "diff the frontier against a blessed one (file, or a directory holding it)" },
        ArgSpec { name: "--tolerances", value: Some("FILE"), help: "per-metric tolerance spec for --diff" },
    ],
    positionals: &[],
};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    vs_bench::install_panic_hook("dse");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = SPEC.parse_or_exit(&args);
    parsed.common.apply_observability();

    let settings = parsed.run_settings_or_exit();
    let space = match (parsed.extra("--grid"), parsed.extra("--space")) {
        (Some(_), Some(_)) => fail("--grid and --space are mutually exclusive"),
        (None, None) | (Some("tiny"), None) => AxisSpace::tiny_grid(),
        (Some("full"), None) => AxisSpace::full_grid(),
        (Some("paper"), None) => AxisSpace::default(),
        (Some(other), None) => fail(&format!("unknown grid {other:?} (tiny|full|paper)")),
        (None, Some(spec)) => spec
            .parse::<AxisSpace>()
            .unwrap_or_else(|e| fail(&e.to_string())),
    };
    if space.is_empty() {
        fail("the axis space is empty");
    }
    // The diff's inputs resolve before the run, so a mistyped golden or
    // tolerance path fails in milliseconds, not after the exploration.
    let diff = parsed.extra("--diff").map(Path::new).map(|golden| {
        let golden = if golden.is_dir() {
            golden.join(FRONTIER_FILE)
        } else {
            golden.to_path_buf()
        };
        if !golden.is_file() {
            fail(&format!(
                "golden frontier {} does not exist",
                golden.display()
            ));
        }
        let spec = parsed
            .extra("--tolerances")
            .map_or(Ok(ToleranceSpec::exact()), load_tolerances)
            .unwrap_or_else(|e| fail(&e));
        (golden, spec)
    });

    let deterministic = parsed.has("--deterministic");
    let mut out = parsed
        .common
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/dse"));
    let mut preloaded = Default::default();
    if let Some(dir) = &parsed.common.resume {
        // Resume targets the journaled directory itself.
        out = dir.clone();
        let state = journal::load_dse_resume(dir)
            .unwrap_or_else(|e| fail(&format!("cannot read journal in {}: {e}", dir.display())));
        eprintln!(
            "[dse] resume: {} point(s) verified, {} damaged, {} journal line(s) skipped",
            state.verified.len(),
            state.damaged,
            state.skipped_lines,
        );
        preloaded = state.verified;
    }

    // Golden (deterministic) trees carry no journal.
    let exec = Executor::new((!deterministic).then(|| out.clone()), Preload::new());
    exec.tracer().set_enabled(parsed.common.trace);
    let opts = DseOptions { jobs: parsed.common.jobs, settings, space, preloaded };
    let result = run_dse(&exec, &opts);
    let path = result
        .write_to(&out, deterministic)
        .unwrap_or_else(|e| fail(&format!("cannot write dse to {}: {e}", out.display())));
    if parsed.common.trace {
        match exec.write_trace(&out) {
            Ok(trace_path) => eprintln!("[dse] trace -> {}", trace_path.display()),
            Err(e) => eprintln!("[dse] cannot write trace into {}: {e}", out.display()),
        }
    }
    eprintln!(
        "[dse] {} unique of {} enumerated point(s) ({} computed, {} replayed) \
         in {:.1}s on {} worker(s) -> {}",
        result.rows.len(),
        result.enumerated,
        result.evaluated,
        result.replayed,
        result.total_wall_s,
        result.jobs,
        path.display(),
    );
    eprintln!(
        "[dse] runs: {} pde + {} worst-case for {} point(s)",
        result.pde_runs, result.worst_case_runs, result.evaluated,
    );
    let lanes = &result.batch_stats;
    eprintln!(
        "[dse] lanes: {} of {} lane-solve(s) in multi-lane groups, {} alone, over {} shared step(s)",
        lanes.multi_lane_solves, lanes.lane_steps, lanes.singleton_solves, lanes.shared_steps,
    );
    eprintln!(
        "[dse] trunks: {} trunk(s), {} fork(s), {} fallback(s); {} lane-step(s) = {} trunk + {} tail",
        result.trunks,
        result.forks,
        result.fallbacks,
        result.trunk_steps + lanes.lane_steps,
        result.trunk_steps,
        lanes.lane_steps,
    );

    print_frontier(&result);
    let mut ok = true;
    println!("frontier claims:");
    for claim in check_frontier_claims(&result.rows) {
        println!(
            "  {} {:28} {}",
            if claim.pass { "PASS" } else { "FAIL" },
            claim.name,
            claim.detail
        );
        ok &= claim.pass;
    }

    if let Some((golden, spec)) = diff {
        let verdict = diff_baseline(&golden, &path, &spec).unwrap_or_else(|e| fail(&e));
        print!("{}", verdict.render());
        ok &= verdict.is_pass();
    }
    if ok {
        eprintln!("[dse] exit 0: success — frontier claims and diffs passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("[dse] exit 1: a frontier claim or golden diff failed");
        ExitCode::FAILURE
    }
}

fn print_frontier(result: &DseResult) {
    let rows: Vec<Vec<String>> = result
        .frontier()
        .map(|(point, row)| {
            vec![
                point.to_string(),
                format!("{:.4}", row.pde),
                format!("{:.2}", row.area_mult),
                format!("{:.3}", row.worst_v),
            ]
        })
        .collect();
    vs_bench::print_table(
        &format!("Pareto frontier ({} of {} points)", rows.len(), result.rows.len()),
        &["point", "PDE", "area", "worst V"],
        &rows,
    );
}
