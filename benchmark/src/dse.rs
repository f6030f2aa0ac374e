//! `dse_full`: the full 1728-point design-space exploration through the
//! real `dse` binary on min(2, nproc) workers, journaling every point. It
//! runs no GPU model: each point is scalar `PdsRig` steps plus a worst-case
//! gating run, so circuit and controller changes show here and GPU-model
//! changes must not.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::host::{probed, restarts, Restarts};
use crate::metrics::Outcome;
use crate::procs::{pin_command, run_measured, Finished, Programs};
use crate::stats::{deterministic_jsonl, Digest};
use crate::{batch_metrics, count_before, dir_bytes, read_jsonl, Plan};

/// One finished `dse` run.
#[derive(Debug)]
struct DseRun {
    dir: PathBuf,
    proc: Finished,
    /// Unique points the run reported.
    unique: u64,
    /// Points it evaluated (not replayed).
    computed: u64,
    frontier: usize,
    journal_records: u64,
    /// Digest of the frontier artifact without wall-time events.
    digest: String,
}

/// `dse` on one worker per CPU of the plan's worker CPUs.
fn dse_cmd(progs: &Programs, plan: &Plan) -> Command {
    let mut cmd = Command::new(&progs.dse);
    pin_command(&mut cmd, plan.worker_cpus());
    cmd.current_dir(&progs.root)
        .args(["--grid", if plan.selftest { "tiny" } else { "full" }])
        .args(["--profile", plan.profile, "--progress", "off"])
        .args([
            "--jobs",
            &plan.workers().to_string(),
            "--seed",
            &plan.seed.to_string(),
        ]);
    cmd
}

/// Points the grid enumerates.
fn grid_points(plan: &Plan) -> u64 {
    if plan.selftest {
        12
    } else {
        1728
    }
}

fn run_once(progs: &Programs, plan: &Plan, name: &str, traced: bool) -> Result<DseRun, String> {
    let dir = progs.fresh_dir(name)?;
    let mut cmd = dse_cmd(progs, plan);
    cmd.arg("--out").arg(&dir);
    if traced {
        cmd.arg("--trace");
    }
    let proc = run_measured(&mut cmd)?;
    // "[dse] 1728 unique of 1728 enumerated point(s) (1728 computed, 0 replayed) in ..."
    let summary = proc
        .stderr
        .iter()
        .find(|l| l.starts_with("[dse] ") && l.contains(" unique of "));
    let summary = summary.map_or("", String::as_str);
    let text = std::fs::read_to_string(dir.join("dse_frontier.jsonl"))
        .map_err(|e| format!("dse_frontier.jsonl: {e}"))?;
    let frontier = text
        .lines()
        .filter(|l| l.contains("\"on_frontier\":true"))
        .count();
    let mut digest = Digest::default();
    digest.update(deterministic_jsonl(&text)?.as_bytes());
    Ok(DseRun {
        unique: count_before(summary, "unique").unwrap_or(0),
        computed: count_before(summary, "computed").unwrap_or(0),
        frontier,
        journal_records: read_jsonl(&dir.join("journal.jsonl"))?.len() as u64,
        digest: digest.hex(),
        dir,
        proc,
    })
}

/// A nonzero exit or a short grid counts as one failed operation.
fn account(out: &mut Outcome, plan: &Plan, run: &DseRun) {
    let points = grid_points(plan);
    out.attempted += points;
    let ok = run.proc.code() == 0 && run.unique == points;
    if !ok {
        out.failed += 1;
    }
    out.check(
        "dse exits 0 (frontier claims pass) with every grid point",
        ok,
        format!(
            "exit {}, {} of {points} unique points",
            run.proc.code(),
            run.unique
        ),
    );
}

/// Set-up time: `plan.setups` restarts of `dse --resume DIR`, each
/// verifying every journaled point and rebuilding the frontier without
/// evaluating anything.
fn setup(out: &mut Outcome, progs: &Programs, plan: &Plan, dir: &Path) -> Result<Restarts, String> {
    let points = grid_points(plan);
    let restarts = restarts(plan.setups, plan.worker_cpus(), |_| {
        let mut cmd = dse_cmd(progs, plan);
        cmd.arg("--resume").arg(dir);
        let f = run_measured(&mut cmd)?;
        // "[dse] resume: 1728 point(s) verified, 0 damaged, 0 journal line(s) skipped"
        let line = f
            .stderr
            .iter()
            .find_map(|l| l.strip_prefix("[dse] resume: "))
            .unwrap_or("");
        let (verified, damaged) = (count_before(line, "point"), count_before(line, "damaged"));
        let ok = f.code() == 0 && verified == Some(points) && damaged == Some(0);
        let problem = format!(
            "exit {}, {verified:?} of {points} verified, {damaged:?} damaged",
            f.code()
        );
        Ok((f.wall_s, (!ok).then_some(problem)))
    })?;
    out.check(
        "resume replays every journaled point",
        restarts.problem.is_none(),
        restarts
            .problem
            .clone()
            .unwrap_or(format!("{} restarts, {points} points each", restarts.count)),
    );
    Ok(restarts)
}

/// The untraced workload: explorations until the next one would overrun
/// `plan.seconds` (at least one), then the set-up restarts, on CPUs the
/// host-speed probe watches.
pub fn workload(progs: &Programs, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new("dse_full");
    let ((runs, setup), slow) = probed(plan.worker_cpus(), || {
        let runs = plan.repeat(|i| {
            let run = run_once(progs, plan, &format!("dse-{i}"), false)?;
            account(&mut out, plan, &run);
            let wall = run.proc.wall_s;
            Ok((run, wall))
        })?;
        let setup = setup(&mut out, progs, plan, &runs[0].dir)?;
        Ok((runs, setup))
    })?;
    let first = &runs[0];
    out.check(
        "same seed, same frontier",
        runs.iter().all(|r| r.digest == first.digest),
        format!("{} run(s), digest {}", runs.len(), first.digest),
    );

    let done: Vec<_> = runs.iter().map(|r| (&r.proc, r.unique as f64)).collect();
    batch_metrics(&mut out, &slow, &setup, &done);
    out.details.push(format!(
        "{} points on {} worker(s), {} on the frontier",
        first.unique,
        plan.workers(),
        first.frontier
    ));
    out.digest = first.digest.clone();
    Ok(out)
}

/// The point pool, journal and tracing layers: one untraced and one traced
/// exploration of the same seed.
pub fn layers(out: &mut Outcome, progs: &Programs, plan: &Plan) -> Result<(), String> {
    let (plain, plain_slow) = probed(plan.worker_cpus(), || {
        run_once(progs, plan, "dse-untraced", false)
    })?;
    let (traced, traced_slow) = probed(plan.worker_cpus(), || {
        run_once(progs, plan, "dse-traced", true)
    })?;
    account(out, plan, &plain);
    account(out, plan, &traced);
    out.check(
        "traced and untraced explorations write identical frontiers",
        plain.digest == traced.digest,
        format!("{} vs {}", plain.digest, traced.digest),
    );
    out.digest = plain.digest.clone();
    let workers = plan.workers() as f64;
    out.metric("exec.tasks", plain.computed as f64, 1);
    out.metric(
        "exec.cpu_ms_per_task",
        plain.proc.cpu_s * 1e3 / plain.computed.max(1) as f64,
        plain.computed as usize,
    );
    out.metric(
        "exec.parallel_efficiency",
        plain.proc.cpu_s / (plain.proc.wall_s * workers),
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
        "frontier: {} of {} points",
        plain.frontier, plain.unique
    ));
    Ok(())
}
