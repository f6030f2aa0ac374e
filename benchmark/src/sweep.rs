//! `sweep_golden`: the golden experiment catalogue through the real
//! `sweep` binary with one worker and journaling on, as a user runs it.
//! Everything is read back from the files the binary writes: the manifest,
//! the journal, the scenario caches and the artifacts.

use std::path::{Path, PathBuf};
use std::process::Command;

use vs_telemetry::json::Json;

use crate::host::{probed, restarts, Restarts};
use crate::metrics::Outcome;
use crate::procs::{pin_command, run_measured, Finished, Programs};
use crate::stats::{deterministic_jsonl, percentile_line, Digest};
use crate::{batch_metrics, count_before, dir_bytes, read_jsonl, Plan};

/// Experiments the selftest's reduced catalogue runs.
const SELFTEST_ONLY: &str = "fig8,table3,fig9";

/// One finished `sweep run` and what its output directory holds.
#[derive(Debug)]
struct SweepRun {
    dir: PathBuf,
    proc: Finished,
    /// Per-task wall seconds (all attempts) from the journal.
    task_walls: Vec<f64>,
    /// Simulated GPU cycles over the journaled scenario reports.
    cycles: u64,
    experiments: u64,
    failed_experiments: u64,
    degraded: u64,
    run_stats: Json,
    journal_records: u64,
    /// Digest of the artifacts without wall-time events.
    digest: String,
}

impl SweepRun {
    fn stat(&self, key: &str) -> u64 {
        self.run_stats.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
}

fn typed<'a>(lines: &'a [Json], kind: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
    lines
        .iter()
        .filter(move |l| l.get("type").and_then(Json::as_str) == Some(kind))
}

/// `sweep run` with one worker, on the plan's first CPU.
fn sweep_cmd(progs: &Programs, plan: &Plan) -> Command {
    let mut cmd = Command::new(&progs.sweep);
    pin_command(&mut cmd, &[plan.cpu()]);
    cmd.current_dir(&progs.root)
        .args([
            "run",
            "--profile",
            plan.profile,
            "--jobs",
            "1",
            "--progress",
            "off",
        ])
        .args(["--seed", &plan.seed.to_string()]);
    cmd
}

/// Runs one sweep into a fresh directory and reads back what it wrote.
fn run_once(progs: &Programs, plan: &Plan, name: &str, traced: bool) -> Result<SweepRun, String> {
    let dir = progs.fresh_dir(name)?;
    let mut cmd = sweep_cmd(progs, plan);
    cmd.arg("--out").arg(&dir);
    if plan.selftest {
        cmd.args(["--only", SELFTEST_ONLY]);
    }
    if traced {
        cmd.arg("--trace");
    }
    let proc = run_measured(&mut cmd)?;
    let manifest = read_jsonl(&dir.join("manifest.jsonl"))?;
    let journal = read_jsonl(&dir.join("journal.jsonl"))?;
    let suite = typed(&manifest, "suite")
        .next()
        .ok_or("manifest has no suite line")?;
    let run_stats = typed(&manifest, "run_stats")
        .next()
        .cloned()
        .unwrap_or(Json::Null);
    let experiments: Vec<&Json> = typed(&manifest, "experiment").collect();

    let mut task_walls = Vec::new();
    let mut cycles = 0;
    for rec in typed(&journal, "scenario_done") {
        let walls = rec
            .get("attempt_wall_s")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        task_walls.push(walls.iter().filter_map(Json::as_f64).sum());
        let file = rec
            .get("file")
            .and_then(Json::as_str)
            .ok_or("scenario record without file")?;
        let text = std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        let parsed = vs_telemetry::json::parse(text.trim()).map_err(|e| format!("{file}: {e}"))?;
        cycles += parsed
            .get("report")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }

    let mut digest = Digest::default();
    for exp in &experiments {
        let file = exp
            .get("artifact")
            .and_then(Json::as_str)
            .ok_or("experiment without artifact")?;
        let text = std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        digest.update(file.as_bytes());
        digest.update(
            deterministic_jsonl(&text)
                .map_err(|e| format!("{file}: {e}"))?
                .as_bytes(),
        );
    }
    Ok(SweepRun {
        task_walls,
        cycles,
        experiments: experiments.len() as u64,
        failed_experiments: experiments
            .iter()
            .filter(|e| e.get("failed").and_then(Json::as_bool) == Some(true))
            .count() as u64,
        degraded: suite.get("degraded").and_then(Json::as_u64).unwrap_or(0),
        run_stats,
        journal_records: journal.len() as u64,
        digest: digest.hex(),
        dir,
        proc,
    })
}

/// Counts one sweep's operations and failures into `out` and checks its
/// exit code and manifest.
fn account(out: &mut Outcome, run: &SweepRun) {
    let quarantined = run.stat("quarantined");
    out.attempted += run.task_walls.len() as u64 + quarantined + run.experiments;
    out.failed += quarantined + run.failed_experiments;
    out.check(
        "sweep exits 0 (headline claims pass)",
        run.proc.code() == 0,
        format!("exit {} in {}", run.proc.code(), run.dir.display()),
    );
    out.check(
        "manifest degraded = 0",
        run.degraded == 0,
        format!("degraded {}", run.degraded),
    );
}

/// Set-up time: `plan.setups` restarts of `sweep run --resume DIR`, each
/// replaying and verifying the whole journal. The restart runs only
/// `table1`, which simulates nothing, so its wall is the replay a resumed
/// run pays before its first task.
fn setup(
    out: &mut Outcome,
    progs: &Programs,
    plan: &Plan,
    dir: &Path,
    scenarios: usize,
) -> Result<Restarts, String> {
    let restarts = restarts(plan.setups, &[plan.cpu()], |_| {
        let mut cmd = sweep_cmd(progs, plan);
        cmd.args(["--only", "table1", "--resume"]).arg(dir);
        let f = run_measured(&mut cmd)?;
        // "[sweep] resume: 240 scenario(s) + 20 artifact(s) verified, 0 damaged entries ..."
        let line = f
            .stderr
            .iter()
            .find_map(|l| l.strip_prefix("[sweep] resume: "))
            .unwrap_or("");
        let (verified, damaged) = (
            count_before(line, "scenario"),
            count_before(line, "damaged"),
        );
        let ok = f.code() == 0 && verified == Some(scenarios as u64) && damaged == Some(0);
        let problem = format!(
            "exit {}, {verified:?} of {scenarios} verified, {damaged:?} damaged",
            f.code()
        );
        Ok((f.wall_s, (!ok).then_some(problem)))
    })?;
    out.check(
        "resume replays every journaled scenario",
        restarts.problem.is_none(),
        restarts.problem.clone().unwrap_or(format!(
            "{} restarts, {scenarios} scenarios each",
            restarts.count
        )),
    );
    Ok(restarts)
}

/// `sweep diff-baseline goldens DIR`: the golden regression gate, outside
/// the timed window (seed 42 at the golden profile only).
fn golden_diff(out: &mut Outcome, progs: &Programs, dir: &Path) -> Result<(), String> {
    let mut cmd = Command::new(&progs.sweep);
    cmd.current_dir(&progs.root)
        .args(["diff-baseline", "goldens"])
        .arg(dir);
    let f = run_measured(&mut cmd)?;
    out.check(
        "sweep diff-baseline goldens",
        f.code() == 0,
        format!("exit {}", f.code()),
    );
    Ok(())
}

/// The untraced workload: sweeps until the next one would overrun
/// `plan.seconds` (at least one), then the set-up restarts, all on one CPU
/// the host-speed probe watches.
pub fn workload(progs: &Programs, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new("sweep_golden");
    let ((runs, setup), slow) = probed(&[plan.cpu()], || {
        let runs = plan.repeat(|i| {
            let run = run_once(progs, plan, &format!("sweep-{i}"), false)?;
            account(&mut out, &run);
            let wall = run.proc.wall_s;
            Ok((run, wall))
        })?;
        let setup = setup(
            &mut out,
            progs,
            plan,
            &runs[0].dir,
            runs[0].task_walls.len(),
        )?;
        Ok((runs, setup))
    })?;
    let first = &runs[0];
    if plan.golden_checks() {
        golden_diff(&mut out, progs, &first.dir)?;
    }
    out.check(
        "same seed, same artifacts",
        runs.iter().all(|r| r.digest == first.digest),
        format!("{} sweep(s), digest {}", runs.len(), first.digest),
    );

    let done: Vec<_> = runs.iter().map(|r| (&r.proc, r.cycles as f64)).collect();
    batch_metrics(&mut out, &slow, &setup, &done);

    let tasks: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.task_walls.iter().map(|w| w * 1e3))
        .collect();
    out.details.push(format!(
        "simulated {} GPU cycles per sweep; {}",
        first.cycles,
        percentile_line("unscaled task latency", &tasks)
    ));
    out.digest = first.digest.clone();
    Ok(out)
}

/// The executor, journal and tracing layers: one untraced and one traced
/// sweep of the same seed.
pub fn layers(out: &mut Outcome, progs: &Programs, plan: &Plan) -> Result<(), String> {
    let (plain, plain_slow) = probed(&[plan.cpu()], || {
        run_once(progs, plan, "sweep-untraced", false)
    })?;
    let (traced, traced_slow) = probed(&[plan.cpu()], || {
        run_once(progs, plan, "sweep-traced", true)
    })?;
    account(out, &plain);
    account(out, &traced);
    out.check(
        "traced and untraced sweeps write identical artifacts",
        plain.digest == traced.digest,
        format!("{} vs {}", plain.digest, traced.digest),
    );
    out.digest = plain.digest.clone();
    let tasks = plain.stat("scenario_tasks");
    let task_total: f64 = plain.task_walls.iter().sum();
    out.metric("exec.tasks", tasks as f64, 1);
    out.metric(
        "exec.cpu_ms_per_task",
        plain.proc.cpu_s * 1e3 / tasks.max(1) as f64,
        tasks as usize,
    );
    out.metric(
        "exec.parallel_efficiency",
        plain.proc.cpu_s / plain.proc.wall_s,
        1,
    );
    out.metric("journal.records", plain.journal_records as f64, 1);
    out.metric("journal.store_bytes", dir_bytes(&plain.dir) as f64, 1);
    out.metric(
        "telemetry.trace_overhead_frac",
        traced_slow.scale(traced.proc.wall_s) / plain_slow.scale(plain.proc.wall_s) - 1.0,
        2,
    );
    out.details.push(format!(
        "shard: {} steals, {} retries, {} replayed, {} DC-cache hits; {:.3} s of {:.3} s wall outside tasks",
        plain.stat("steals"),
        plain.stat("retries"),
        plain.stat("replayed"),
        plain.stat("dc_cache_hits"),
        plain.proc.wall_s - task_total,
        plain.proc.wall_s,
    ));
    Ok(())
}
