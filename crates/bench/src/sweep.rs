//! The parallel sweep runner: executes a set of experiments across a worker
//! pool and writes one JSONL artifact per experiment plus a suite manifest.
//!
//! Scheduling is a two-level work queue on the caller's [`Executor`].
//! Level 1 is the executor's claim loop (`Executor::run_claims`): each
//! worker claims the next experiment in *priority order* (heaviest suites
//! first, see [`schedule_order`]), results landing at canonical slots, and
//! runs it with a *copy* of the shared [`RunSettings`]. Level 2: an
//! experiment that runs benchmark suites requests all of them, its
//! conventional baseline included, as one batch, which fans out into
//! per-scenario group tasks (see [`crate::shard`]): per scenario, the
//! runs that can share a GPU trunk tick one GPU until their SM controls
//! diverge. A worker whose experiment queue has drained steals group tasks
//! from batches still in flight instead of exiting, so `--jobs 8` helps
//! even a single-experiment sweep. The manifest's `run_stats` line counts
//! the group tasks, the GPU cycles they ticked, and the members that
//! parked and re-ticked their prefixes.
//!
//! Crash safety: every experiment (and every scenario run, one level down)
//! runs inside an isolation boundary — a panic becomes a failed run in the
//! result, not a dead process. Scenario tasks that exhaust their retries
//! quarantine, and the sweep completes **degraded**: [`SweepResult`]
//! carries the quarantine records, the manifest grows a `degraded` section
//! naming every lost (suite, scenario) with its error chain, and the
//! `sweep` binary exits 4. Artifacts are written atomically (tmp + rename),
//! and every finished scenario run is journaled, so `sweep --resume` can
//! replay verified work (see [`crate::journal`]) and recompute the
//! experiments from it. The executor that ran the sweep also writes it
//! ([`SweepResult::write_to`]): its tracer records the artifact writes
//! beside the run's task spans.
//!
//! Determinism: experiments share no RNG stream or mutable state (the
//! executor's suite memo assembles its reports in canonical scenario
//! order however its tasks were scheduled), so artifacts are bit-identical
//! whatever the thread count, stealing pattern, or scheduling order — only
//! the schema-tagged wall-time events differ. The priority order itself is
//! a pure function of the experiment list, never of wall time.

use std::io;
use std::path::Path;
use std::time::Instant;

use vs_telemetry::{json::Json, Event, RunArtifact, StageSample};

use crate::obs;
use crate::shard::{self, QuarantineRecord, ShardStats};
use crate::{Executor, ExperimentId, ExperimentOutput, RunSettings};

/// What to run and how.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Restrict to these experiments (canonical order is imposed);
    /// `None` = the full catalogue.
    pub only: Option<Vec<ExperimentId>>,
    /// Settings every experiment runs under.
    pub settings: RunSettings,
}

/// One completed experiment inside a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Which experiment.
    pub id: ExperimentId,
    /// Its text + artifact (empty placeholder when the run failed).
    pub output: ExperimentOutput,
    /// Wall time of this run, seconds (excluded from every diff by schema).
    pub wall_s: f64,
    /// Why the run failed, if it did (a panic that unwound out of the
    /// experiment — e.g. a quarantined scenario its computation needed).
    pub error: Option<String>,
}

/// A completed sweep, experiments in canonical order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The runs, ordered as [`ExperimentId::ALL`].
    pub runs: Vec<ExperimentRun>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// The settings everything ran under.
    pub settings: RunSettings,
    /// Total sweep wall time, seconds.
    pub total_wall_s: f64,
    /// Scenario tasks that exhausted their retries, sorted by (suite,
    /// scenario) for a deterministic manifest.
    pub quarantined: Vec<QuarantineRecord>,
    /// The executor's counters at the end of the sweep (tasks, steals,
    /// cache hits, replays, retries, quarantines, GPU trunks).
    /// Observational — scheduling-dependent — so they appear only in the
    /// non-deterministic manifest (`run_stats` line), never in golden trees.
    pub stats: ShardStats,
}

impl SweepResult {
    /// Whether the sweep completed degraded: quarantined scenario tasks
    /// and/or failed experiments. The `sweep` binary maps this to exit 4.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty() || self.runs.iter().any(|r| r.error.is_some())
    }
}

/// Resolves `jobs = 0` to the machine's available parallelism.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Approximate scenario-run count of an experiment: how many suite runs
/// its computation triggers (x12 scenarios), from the experiment
/// definitions. Only the *relative order* matters — this is the priority
/// weight for [`schedule_order`] — so the numbers are maintained as rough
/// suite counts, not exact costs.
fn cost_weight(id: ExperimentId) -> u64 {
    match id {
        // baseline + 6 actuator-weight combinations
        ExperimentId::Fig13 => 84,
        // baseline + 5 threshold settings
        ExperimentId::Fig12 => 72,
        // all four PDS configurations
        ExperimentId::Fig8 | ExperimentId::Table3 => 48,
        // baseline + conventional-PM + VS-PM suites
        ExperimentId::Fig15 | ExperimentId::Fig16 | ExperimentId::Fig17 => 36,
        // no suite: 24 co-sims (circuit-only and cross-layer per
        // scenario) on a private pool, about two suites' worth
        ExperimentId::Fig11 => 30,
        // baseline + cross-layer suite
        ExperimentId::Fig14 => 24,
        // single-suite or analytic experiments
        _ => 12,
    }
}

/// The dispatch order for `ids`: indices into `ids`, heaviest experiments
/// first (stable, so equal weights keep canonical order). Launching the
/// longest suites first keeps the pool busy at the tail of the sweep —
/// a light experiment finishing last can't strand idle workers behind a
/// late-started `fig13`. Results still land at canonical slots; this
/// order is observable only in scheduling, never in artifacts.
pub fn schedule_order(ids: &[ExperimentId]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cost_weight(ids[i])));
    order
}

/// Runs the sweep on `exec`: a pool of `jobs` workers drains the experiment
/// queue (priority order), then steals group tasks from in-flight batches
/// until everything lands. The pool is *not* capped at the experiment count
/// — extra workers go straight to scenario stealing.
pub fn run_sweep(exec: &Executor, opts: &SweepOptions) -> SweepResult {
    let ids: Vec<ExperimentId> = match &opts.only {
        Some(list) => ExperimentId::ALL
            .into_iter()
            .filter(|id| list.contains(id))
            .collect(),
        None => ExperimentId::ALL.to_vec(),
    };
    let jobs = effective_jobs(opts.jobs);
    let started = Instant::now();
    let settings = opts.settings;
    let runs = exec.run_claims(jobs, &schedule_order(&ids), |i| {
        run_experiment(exec, ids[i], &settings)
    });
    SweepResult {
        runs,
        jobs,
        settings,
        total_wall_s: started.elapsed().as_secs_f64(),
        quarantined: exec.quarantined(),
        stats: exec.stats(),
    }
}

/// Runs one experiment inside an isolation boundary: an experiment that
/// panics (most likely because a scenario it needed was quarantined)
/// becomes a failed run, not a dead sweep.
fn run_experiment(exec: &Executor, id: ExperimentId, settings: &RunSettings) -> ExperimentRun {
    obs::progress(|| format!("[sweep] {} ...", id.name()));
    let span = exec.tracer().begin();
    let t0 = Instant::now();
    let outcome = shard::isolated(|| id.run(exec, settings));
    let wall_s = t0.elapsed().as_secs_f64();
    exec.tracer().end_span(
        "experiment",
        "experiment",
        span,
        &[
            ("id", id.name().to_string()),
            (
                "outcome",
                if outcome.is_ok() { "ok" } else { "failed" }.to_string(),
            ),
        ],
    );
    match outcome {
        Ok(output) => {
            obs::progress(|| format!("[sweep] {} done in {wall_s:.2}s", id.name()));
            ExperimentRun { id, output, wall_s, error: None }
        }
        Err(msg) => {
            obs::progress(|| format!("[sweep] {} FAILED: {msg}", id.name()));
            ExperimentRun {
                id,
                output: ExperimentOutput {
                    text: String::new(),
                    artifact: RunArtifact { events: Vec::new() },
                },
                wall_s,
                error: Some(msg),
            }
        }
    }
}

/// The suite-manifest file name inside a sweep output directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

impl SweepResult {
    /// Writes the sweep to `dir`: one `<experiment>.jsonl` artifact per run
    /// (the deterministic events plus one appended wall-time event) and a
    /// `manifest.jsonl` suite summary (a `suite` header line, one
    /// `experiment` line per run, and — in a degraded sweep — one
    /// `degraded` line per quarantined scenario task). `exec` is the
    /// executor that ran the sweep: its tracer records one
    /// `artifact_write` span per file.
    ///
    /// Every file lands via tmp-file + rename ([`vs_telemetry::write_atomic`]),
    /// so a crash at any instant leaves no torn file under a final name. No
    /// artifact is journaled: `--resume` replays the journaled scenario runs
    /// and recomputes every experiment from them.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, exec: &Executor, dir: &Path) -> io::Result<()> {
        self.write_impl(exec, dir, false)
    }

    /// Like [`SweepResult::write_to`] but with every wall-time field left
    /// out — artifacts carry only schema-deterministic events and the
    /// manifest omits `wall_s`/`total_wall_s`. This is the mode goldens are
    /// blessed in, so re-running it produces byte-identical files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_deterministic_to(&self, exec: &Executor, dir: &Path) -> io::Result<()> {
        self.write_impl(exec, dir, true)
    }

    fn write_impl(&self, exec: &Executor, dir: &Path, deterministic: bool) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut suite = vec![
            ("type", Json::from("suite")),
            ("schema_version", Json::from(vs_telemetry::SCHEMA_VERSION)),
            ("workload_scale", Json::from(self.settings.workload_scale)),
            ("max_cycles", Json::from(self.settings.max_cycles)),
            ("seed", Json::from(self.settings.seed)),
            ("jobs", Json::from(self.jobs as u64)),
            ("experiments", Json::from(self.runs.len() as u64)),
            ("degraded", Json::from(self.quarantined.len() as u64)),
        ];
        if !deterministic {
            suite.push(("total_wall_s", Json::from(self.total_wall_s)));
        }
        let mut manifest_lines = vec![Json::obj(suite)];
        if !deterministic {
            // Executor counters for this sweep. Scheduling-dependent, so
            // they never enter deterministic (golden) manifests — and the
            // golden byte-diff skips manifest files entirely, so growing
            // this line is schema-safe.
            manifest_lines.push(self.stats.to_json());
        }
        for run in &self.runs {
            let mut line = vec![
                ("type", Json::from("experiment")),
                ("id", Json::from(run.id.name())),
            ];
            if let Some(error) = &run.error {
                // A failed experiment writes no artifact (there is nothing
                // trustworthy to write); the manifest records the failure.
                line.push(("failed", Json::from(true)));
                line.push(("error", Json::from(error.as_str())));
            } else {
                let mut artifact = run.output.artifact.clone();
                if !deterministic {
                    artifact.events.push(Event::Stages(vec![StageSample {
                        stage: "experiment".to_string(),
                        total_s: run.wall_s,
                        count: 1,
                    }]));
                }
                let file = format!("{}.jsonl", run.id.name());
                let bytes = artifact.to_jsonl().into_bytes();
                write_file(exec, dir, &file, &bytes)?;
                line.push(("artifact", Json::from(file)));
            }
            line.push(("settings_dependent", Json::from(run.id.settings_dependent())));
            if !deterministic {
                line.push(("wall_s", Json::from(run.wall_s)));
            }
            manifest_lines.push(Json::obj(line));
        }
        manifest_lines.extend(self.quarantined.iter().map(QuarantineRecord::to_json));
        let mut text = String::new();
        for line in manifest_lines {
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        write_file(exec, dir, MANIFEST_FILE, text.as_bytes())
    }
}

/// Writes one sweep file atomically, as an `artifact_write` span on
/// `exec`'s tracer.
fn write_file(exec: &Executor, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let span = exec.tracer().begin();
    vs_telemetry::write_atomic(&dir.join(name), bytes)?;
    exec.tracer().end_span(
        "artifact",
        "artifact_write",
        span,
        &[
            ("file", name.to_string()),
            ("bytes", bytes.len().to_string()),
        ],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn only_filter_preserves_canonical_order() {
        // Request out of order; the sweep must still run canonical order.
        let opts = SweepOptions {
            jobs: 2,
            only: Some(vec![ExperimentId::Fig5, ExperimentId::Table2, ExperimentId::Table1]),
            settings: RunSettings::tiny_profile(),
        };
        let result = run_sweep(&Executor::default(), &opts);
        let ids: Vec<_> = result.runs.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![ExperimentId::Table1, ExperimentId::Table2, ExperimentId::Fig5]
        );
        assert!(!result.is_degraded());
        assert!(result.quarantined.is_empty());
    }

    #[test]
    fn schedule_order_is_longest_first_and_deterministic() {
        // Priorities are a pure function of the list: heaviest first,
        // ties in canonical order. No wall-clock measurement involved.
        let ids = vec![
            ExperimentId::Table1, // weight 12
            ExperimentId::Fig8,   // 48
            ExperimentId::Fig13,  // 84
            ExperimentId::Fig14,  // 24
            ExperimentId::Table3, // 48
            ExperimentId::Fig12,  // 72
        ];
        let order = schedule_order(&ids);
        let scheduled: Vec<ExperimentId> = order.iter().map(|&i| ids[i]).collect();
        assert_eq!(
            scheduled,
            vec![
                ExperimentId::Fig13,
                ExperimentId::Fig12,
                ExperimentId::Fig8,   // 48, before Table3 by list order
                ExperimentId::Table3, // 48
                ExperimentId::Fig14,
                ExperimentId::Table1,
            ]
        );
        assert_eq!(order, schedule_order(&ids), "stable across calls");
        // The full catalogue starts with the heaviest suite experiment.
        let all = ExperimentId::ALL.to_vec();
        let first = schedule_order(&all)[0];
        assert_eq!(all[first], ExperimentId::Fig13);
    }
}
