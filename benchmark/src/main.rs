//! End-to-end and per-layer benchmark of the voltage-stacked GPU
//! co-simulator. See README.md next to this package for the workloads,
//! the metrics and how to read them.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark run   [--seed N] [--seconds S] [--out DIR]
//! benchmark trace [--seed N] [--seconds S] [--out DIR]
//! benchmark compare BASE.json... -- HEAD.json...
//! benchmark selftest
//! ```
//!
//! The first form runs one workload and prints its result as the last line
//! of stdout: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with
//! the end-to-end metrics untraced (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `run` and `trace` run every workload that way and write
//! `DIR/result.json`; `compare` judges two sets of those files.

mod compare;
mod dse;
mod host;
mod metrics;
mod probes;
mod procs;
mod serve;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vs_bench::RunSettings;
use vs_telemetry::json::{self, Json};

use host::{Restarts, Slowdown};
use metrics::Outcome;
use procs::{Finished, Programs};
use stats::median;

#[global_allocator]
static GLOBAL: probes::CountingAlloc = probes::CountingAlloc;

/// The benchmark definition at the repository root: metric bounds, run
/// length and workload list.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workloads in the order `run` and `trace` drive them.
const WORKLOADS: [&str; 3] = ["sweep_golden", "dse_full", "serve_mixed"];

/// How one invocation runs its workloads.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement budget per workload, seconds.
    pub seconds: f64,
    /// The programs' run-settings profile (`golden`, or `tiny` for the
    /// selftest and the transport probe).
    pub profile: &'static str,
    /// Reduced counts for the selftest.
    pub selftest: bool,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
    /// CPUs this process may use; single-worker programs run on the first.
    pub cpus: Vec<usize>,
}

impl Plan {
    fn new(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            profile: "golden",
            selftest: false,
            setups: 9,
            cpus: procs::allowed_cpus(),
        }
    }

    /// Whether the golden regression gate applies (it is blessed at seed 42).
    pub fn golden_checks(&self) -> bool {
        !self.selftest && self.seed == 42
    }

    /// Worker threads and client connections: min(2, nproc).
    pub fn workers(&self) -> usize {
        nproc().min(2).min(self.cpus.len()).max(1)
    }

    /// The CPUs multi-worker programs run on, one per worker.
    pub fn worker_cpus(&self) -> &[usize] {
        &self.cpus[..self.workers().min(self.cpus.len())]
    }

    /// The CPU single-worker programs run on.
    pub fn cpu(&self) -> usize {
        self.cpus.first().copied().unwrap_or(0)
    }

    /// Distinct cold points serve_mixed requests.
    pub fn cold_points(&self) -> usize {
        if self.selftest {
            4
        } else {
            40
        }
    }

    /// Runs `unit` at least once, and again while the next run still fits
    /// in the budget; `unit(i)` returns its result and wall seconds.
    pub fn repeat<T>(
        &self,
        mut unit: impl FnMut(usize) -> Result<(T, f64), String>,
    ) -> Result<Vec<T>, String> {
        let started = Instant::now();
        let mut done = Vec::new();
        loop {
            let (value, wall) = unit(done.len())?;
            done.push(value);
            if started.elapsed().as_secs_f64() + wall > self.seconds {
                return Ok(done);
            }
        }
    }

    /// The programs' settings under this plan's profile and seed.
    fn settings(&self) -> RunSettings {
        let base = if self.profile == "tiny" {
            RunSettings::tiny_profile()
        } else {
            RunSettings::golden_profile()
        };
        RunSettings {
            seed: self.seed,
            ..base
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    })
}

/// The JSON lines of a file.
pub fn read_jsonl(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The number printed right before the first word starting with `word`
/// (punctuation around the number is ignored).
pub fn count_before(line: &str, word: &str) -> Option<u64> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .find(|w| w[1].starts_with(word))
        .and_then(|w| {
            w[0].trim_matches(|c: char| !c.is_ascii_digit())
                .parse()
                .ok()
        })
}

/// Records the end-to-end metrics of a batch program (sweep or dse) run
/// repeatedly: medians over `runs`, each a finished process with the work
/// it completed, scaled by the host slowdown `slow`; `setup` gives
/// `setup_s`.
pub fn batch_metrics(
    out: &mut Outcome,
    slow: &Slowdown,
    setup: &Restarts,
    runs: &[(&Finished, f64)],
) {
    let med = |f: fn(&Finished, f64) -> f64| {
        median(&runs.iter().map(|&(p, w)| f(p, w)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let (wall, cpu, rate) = (
        med(|p, _| p.wall_s),
        med(|p, _| p.cpu_s),
        med(|p, work| work / p.wall_s),
    );
    let rss_kib = runs.iter().map(|(p, _)| p.maxrss_kib).max().unwrap_or(0);
    out.metric("setup_s", setup.scaled_s, setup.count);
    out.metric("wall_s", slow.scale(wall), runs.len());
    out.metric("cpu_s", slow.scale(cpu), runs.len());
    out.metric("peak_rss_mb", rss_kib as f64 / 1024.0, runs.len());
    out.metric("work_per_s", rate * slow.factor, runs.len());
    out.details.push(slow.detail(&[
        ("setup_s", setup.raw_s),
        ("wall_s", wall),
        ("cpu_s", cpu),
        ("work_per_s", rate),
    ]));
}

/// Runs one workload: untraced for the end-to-end metrics, or traced for
/// the per-layer ones (the workload's own layers plus every probe).
fn run_workload(
    progs: &Programs,
    plan: &Plan,
    workload: &str,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = if traced {
        let mut out = Outcome::new(workload);
        match workload {
            "sweep_golden" => sweep::layers(&mut out, progs, plan)?,
            "dse_full" => dse::layers(&mut out, progs, plan)?,
            _ => serve::layers(&mut out, progs, plan)?,
        }
        probes::cosim_stages(&mut out, &plan.settings());
        probes::kernels(&mut out);
        serve::transport(&mut out, progs, plan)?;
        out
    } else {
        match workload {
            "sweep_golden" => sweep::workload(progs, plan)?,
            "dse_full" => dse::workload(progs, plan)?,
            _ => serve::workload(progs, plan)?,
        }
    };
    out.check_emitted(traced);
    Ok(out)
}

/// The value following `flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{name} {v:?} is not valid"))
    })
}

/// The run length BENCHMARK.json fixes.
fn run_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds")?.as_f64())
        .unwrap_or(20.0)
}

/// `--workload W --seed N --seconds S --trace 0|1`: one workload, result
/// on the last line of stdout.
fn one_workload(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let plan = Plan::new(
        parse_flag(args, "--seed", 42)?,
        parse_flag(args, "--seconds", run_seconds())?,
    );
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    let progs = Programs::build()?;
    let result = run_workload(&progs, &plan, workload, traced);
    progs.clean();
    let out = result?;
    print!("{}", out.render());
    println!("{}", out.summary_json().to_string_compact());
    Ok(())
}

/// The commit the repository's `.git` points at, or `unknown`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload once per mode in `modes` (untraced, traced),
/// printing each report; the working files are removed either way.
fn run_all(plan: &Plan, modes: &[bool]) -> Result<(Programs, Vec<Outcome>), String> {
    let progs = Programs::build()?;
    let mut outs = Vec::new();
    let result = WORKLOADS.iter().try_for_each(|workload| {
        modes.iter().try_for_each(|&traced| {
            let out = run_workload(&progs, plan, workload, traced)
                .map_err(|e| format!("{workload}: {e}"))?;
            print!("{}", out.render());
            outs.push(out);
            Ok::<(), String>(())
        })
    });
    progs.clean();
    result.map(|()| (progs, outs))
}

/// `run` / `trace`: every workload, reports on stdout, `DIR/result.json`.
fn suite(args: &[String], traced: bool) -> Result<bool, String> {
    let plan = Plan::new(
        parse_flag(args, "--seed", 42)?,
        parse_flag(args, "--seconds", run_seconds())?,
    );
    let (progs, outs) = run_all(&plan, &[traced])?;
    let mode = if traced { "trace" } else { "run" };
    let dir = flag(args, "--out").map_or_else(
        || progs.root.join("target/benchmark").join(mode),
        PathBuf::from,
    );
    let doc = Json::obj([
        ("commit", Json::from(commit(&progs.root))),
        ("nproc", Json::from(nproc() as u64)),
        ("profile", Json::from(plan.profile)),
        ("seed", Json::from(plan.seed)),
        ("seconds", Json::from(plan.seconds)),
        ("mode", Json::from(mode)),
        (
            "workloads",
            Json::Arr(outs.iter().map(Outcome::record_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("result.json");
    std::fs::write(&path, doc.to_string_compact() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result -> {}", path.display());
    Ok(outs.iter().all(Outcome::correct))
}

/// `selftest`: every workload, untraced and traced, at the tiny
/// profile with reduced counts. Not a measurement: it fails when a
/// declared metric is missing or not finite, or any check fails.
fn selftest() -> Result<bool, String> {
    let plan = Plan {
        profile: "tiny",
        selftest: true,
        setups: 2,
        ..Plan::new(42, 0.0)
    };
    let (_, outs) = run_all(&plan, &[false, true])?;
    let ok = outs.iter().all(|o| o.correct() && o.checks.len() > 1);
    println!("selftest: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare::run(&args[1..]),
        Some("selftest") => selftest(),
        Some("--workload" | "--seed" | "--seconds" | "--trace") => {
            one_workload(&args).map(|()| true)
        }
        _ => Err(
            "usage: benchmark --workload W --seed N --seconds S --trace 0|1 \
                  | run|trace [--seed N] [--seconds S] [--out DIR] \
                  | compare BASE.json... -- HEAD.json... | selftest"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::count_before;

    #[test]
    fn counts_parse_from_program_summaries() {
        let dse =
            "[dse] 1728 unique of 1728 enumerated point(s) (1700 computed, 28 replayed) in 26.2s";
        assert_eq!(count_before(dse, "unique"), Some(1728));
        assert_eq!(count_before(dse, "computed"), Some(1700));
        let resume = "240 scenario(s) + 20 artifact(s) verified, 0 damaged entries to recompute";
        assert_eq!(count_before(resume, "scenario"), Some(240));
        assert_eq!(count_before(resume, "damaged"), Some(0));
        assert_eq!(count_before(resume, "missing"), None);
    }
}
