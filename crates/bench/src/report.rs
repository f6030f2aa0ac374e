//! Post-run analysis of a sweep directory: the `sweep report` joiner and
//! the golden-diff gate.
//!
//! [`RunReport`] joins the three things a finished sweep leaves behind —
//! `manifest.jsonl` (what ran, what degraded), `journal.jsonl` (per-task
//! attempt counts and wall times, schema v2), and an optional `trace.json`
//! (the Perfetto export) — into one human-readable answer to "where did
//! the wall clock go, what was retried, what degraded". Everything it
//! reads is observational; it never touches artifact bytes.
//!
//! [`diff_baseline`] compares two artifact stores (e.g. two revisions'
//! sweep outputs) file by file through [`vs_telemetry::diff_artifacts`],
//! using the baseline's manifest to enumerate what must exist, or two
//! single artifact files. It is the one golden-diff path: `sweep
//! diff-baseline`, `sweep run --diff`, `dse --diff` and serve's
//! `diff_baseline` request all answer with its [`BaselineVerdict`], so a
//! missing or unparseable file fails the same way everywhere.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use vs_telemetry::{
    diff_artifacts, json::{self, Json}, parse_chrome_trace, RunArtifact, ToleranceSpec,
    TracePhase,
};

use crate::journal::{self, JournalRecord};
use crate::shard::{QuarantineRecord, ShardStats};
use crate::sweep::MANIFEST_FILE;

/// The trace export's file name inside a sweep output directory.
pub const TRACE_FILE: &str = "trace.json";

/// One experiment as the manifest recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Experiment name.
    pub id: String,
    /// Wall seconds (absent in deterministic manifests).
    pub wall_s: Option<f64>,
    /// Whether the run failed (panicked out of its isolation boundary).
    pub failed: bool,
}

/// Wall-time statistics for one scenario, aggregated over every suite that
/// ran it (from the journal's v2 per-attempt metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTiming {
    /// Scenario name.
    pub scenario: String,
    /// Completed tasks of this scenario across all suites.
    pub tasks: u64,
    /// Extra attempts beyond the first, summed over those tasks.
    pub retries: u64,
    /// Median task wall, seconds (total across a task's attempts).
    pub p50_s: f64,
    /// 95th-percentile task wall, seconds.
    pub p95_s: f64,
    /// Slowest task wall, seconds.
    pub max_s: f64,
}

/// What the trace export contained, in brief.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events (spans + instants).
    pub events: usize,
    /// Distinct worker tracks.
    pub tracks: usize,
    /// Span counts by event name, sorted by name.
    pub span_counts: Vec<(String, usize)>,
    /// Instant counts by event name, sorted by name.
    pub instant_counts: Vec<(String, usize)>,
    /// Total wall seconds spent in `backoff` spans.
    pub backoff_s: f64,
}

/// The joined run report for one sweep directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Directory the report describes (as given).
    pub dir: String,
    /// `workload_scale` from the manifest header.
    pub workload_scale: Option<f64>,
    /// `max_cycles` from the manifest header.
    pub max_cycles: Option<u64>,
    /// `seed` from the manifest header.
    pub seed: Option<u64>,
    /// Worker threads the sweep used.
    pub jobs: Option<u64>,
    /// Total sweep wall seconds (absent in deterministic manifests).
    pub total_wall_s: Option<f64>,
    /// Experiments in manifest order.
    pub experiments: Vec<ExperimentSummary>,
    /// The `run_stats` counters, when the manifest has them.
    pub run_stats: Option<ShardStats>,
    /// Quarantined (suite, scenario) tasks with their error chains, from
    /// the manifest's `degraded` lines (a line whose suite key or scenario
    /// does not parse is skipped).
    pub quarantined: Vec<QuarantineRecord>,
    /// Per-scenario wall statistics, slowest p95 first. Empty when the
    /// directory has no journal (e.g. a deterministic/golden tree).
    pub scenarios: Vec<ScenarioTiming>,
    /// Estimated wall seconds saved by journal replay: replayed tasks x
    /// the mean journaled task wall. `None` without both inputs.
    pub replay_savings_s: Option<f64>,
    /// Trace summary, when `trace.json` is present and parseable.
    pub trace: Option<TraceSummary>,
}

/// Exact `q`-quantile of an ascending-sorted sample set, with linear
/// interpolation between order statistics. `None` for an empty set: a
/// degraded journal must yield no quantile rather than a fabricated one
/// (and `(n - 1)` underflows at n = 0).
fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

impl RunReport {
    /// Builds the report for `dir`. Requires a readable `manifest.jsonl`;
    /// the journal and trace are optional (their sections go empty).
    ///
    /// # Errors
    ///
    /// A message when the manifest is missing or unparseable (the caller
    /// maps it to the usage/environment exit code).
    pub fn load(dir: &Path) -> Result<RunReport, String> {
        let manifest_text = std::fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| format!("reading {}: {e}", dir.join(MANIFEST_FILE).display()))?;
        let mut report = RunReport {
            dir: dir.display().to_string(),
            workload_scale: None,
            max_cycles: None,
            seed: None,
            jobs: None,
            total_wall_s: None,
            experiments: Vec::new(),
            run_stats: None,
            quarantined: Vec::new(),
            scenarios: Vec::new(),
            replay_savings_s: None,
            trace: None,
        };
        for (n, line) in manifest_text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("manifest line {}: {e}", n + 1))?;
            match v.get("type").and_then(Json::as_str) {
                Some("suite") => {
                    report.workload_scale = v.get("workload_scale").and_then(Json::as_f64);
                    report.max_cycles = v.get("max_cycles").and_then(Json::as_u64);
                    report.seed = v.get("seed").and_then(Json::as_u64);
                    report.jobs = v.get("jobs").and_then(Json::as_u64);
                    report.total_wall_s = v.get("total_wall_s").and_then(Json::as_f64);
                }
                Some("run_stats") => report.run_stats = Some(ShardStats::from_json(&v)),
                Some("experiment") => {
                    report.experiments.push(ExperimentSummary {
                        id: v
                            .get("id")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        wall_s: v.get("wall_s").and_then(Json::as_f64),
                        failed: v.get("failed").and_then(Json::as_bool).unwrap_or(false),
                    });
                }
                _ => {
                    if let Some(record) = QuarantineRecord::from_json(&v) {
                        report.quarantined.push(record);
                    }
                }
            }
        }
        report.load_journal(dir);
        report.trace = load_trace_summary(dir);
        Ok(report)
    }

    /// Folds the journal's v2 wall-time metadata into per-scenario stats.
    /// Lenient throughout: a missing journal or v1 records (no metadata)
    /// simply contribute nothing.
    fn load_journal(&mut self, dir: &Path) {
        // Last record wins per (suite, scenario) — the resume semantics.
        let Ok((last, _skipped)) = journal::replay(dir, |record| match record {
            JournalRecord::ScenarioDone { suite, scenario, attempts, attempt_wall_s, .. } => {
                Some(((suite, scenario), (attempts, attempt_wall_s)))
            }
            _ => None,
        }) else {
            return;
        };
        let mut by_scenario: HashMap<String, (u64, u64, Vec<f64>)> = HashMap::new();
        for ((_suite, scenario), (attempts, walls)) in last {
            let Some(walls) = walls else { continue };
            // A degraded journal can carry `attempt_wall_s: []` (metadata
            // lost, work done). Treat it like a v1 record — contribute
            // nothing — instead of fabricating a 0-second wall sample.
            if walls.is_empty() {
                continue;
            }
            let entry = by_scenario.entry(scenario).or_default();
            entry.0 += 1;
            entry.1 += attempts.unwrap_or(walls.len() as u64).saturating_sub(1);
            entry.2.push(walls.iter().sum());
        }
        let mut all_walls: Vec<f64> = Vec::new();
        for (scenario, (tasks, retries, mut walls)) in by_scenario {
            walls.sort_by(f64::total_cmp);
            let (Some(p50_s), Some(p95_s), Some(&max_s)) = (
                quantile_sorted(&walls, 0.50),
                quantile_sorted(&walls, 0.95),
                walls.last(),
            ) else {
                continue;
            };
            all_walls.extend_from_slice(&walls);
            self.scenarios.push(ScenarioTiming {
                scenario,
                tasks,
                retries,
                p50_s,
                p95_s,
                max_s,
            });
        }
        // Slowest first; ties broken by name for a stable report.
        self.scenarios.sort_by(|a, b| {
            b.p95_s
                .total_cmp(&a.p95_s)
                .then_with(|| a.scenario.cmp(&b.scenario))
        });
        if let Some(stats) = &self.run_stats {
            if stats.replayed > 0 && !all_walls.is_empty() {
                let mean = all_walls.iter().sum::<f64>() / all_walls.len() as f64;
                self.replay_savings_s = Some(stats.replayed as f64 * mean);
            }
        }
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run report: {}\n", self.dir));
        if let (Some(scale), Some(cycles), Some(seed)) =
            (self.workload_scale, self.max_cycles, self.seed)
        {
            out.push_str(&format!(
                "  profile: scale={scale} max_cycles={cycles} seed={seed}"
            ));
            if let Some(jobs) = self.jobs {
                out.push_str(&format!(", jobs={jobs}"));
            }
            out.push('\n');
        }
        let failed = self.experiments.iter().filter(|e| e.failed).count();
        match self.total_wall_s {
            Some(total) => out.push_str(&format!(
                "  total wall: {total:.2} s across {} experiments ({failed} failed)\n",
                self.experiments.len()
            )),
            None => out.push_str(&format!(
                "  {} experiments ({failed} failed); no wall times (deterministic manifest)\n",
                self.experiments.len()
            )),
        }
        if let Some(s) = &self.run_stats {
            out.push_str(&format!(
                "  executor: {} scenario tasks, {} steals, {} DC-cache hits, {} replays, \
                 {} retries, {} quarantined\n",
                s.scenario_tasks, s.steals, s.dc_cache_hits, s.replayed, s.retries, s.quarantined
            ));
            out.push_str(&format!(
                "  GPU trunks: {} group task(s) ticked {} GPU cycle(s); {} member(s) parked, \
                 re-ticking {} prefix cycle(s)\n",
                s.groups, s.gpu_ticks, s.parked, s.prefix_reticks
            ));
        }
        if let Some(saved) = self.replay_savings_s {
            out.push_str(&format!(
                "  replay savings: ~{saved:.2} s of solve wall skipped via the journal\n"
            ));
        }

        if !self.experiments.is_empty() && self.experiments.iter().any(|e| e.wall_s.is_some()) {
            let mut slowest: Vec<&ExperimentSummary> = self.experiments.iter().collect();
            slowest.sort_by(|a, b| {
                b.wall_s
                    .unwrap_or(0.0)
                    .total_cmp(&a.wall_s.unwrap_or(0.0))
                    .then_with(|| a.id.cmp(&b.id))
            });
            let rows: Vec<Vec<String>> = slowest
                .iter()
                .take(5)
                .map(|e| {
                    vec![
                        e.id.clone(),
                        e.wall_s.map_or_else(|| "-".to_string(), |w| format!("{w:.2}")),
                        if e.failed { "FAILED" } else { "ok" }.to_string(),
                    ]
                })
                .collect();
            out.push_str(&crate::format_table(
                "slowest experiments",
                &["experiment", "wall s", "status"],
                &rows,
            ));
        }

        if self.scenarios.is_empty() {
            out.push_str("\nno per-scenario timings (no journal with v2 metadata in this dir)\n");
        } else {
            let rows: Vec<Vec<String>> = self
                .scenarios
                .iter()
                .map(|t| {
                    vec![
                        t.scenario.clone(),
                        t.tasks.to_string(),
                        t.retries.to_string(),
                        format!("{:.3}", t.p50_s),
                        format!("{:.3}", t.p95_s),
                        format!("{:.3}", t.max_s),
                    ]
                })
                .collect();
            out.push_str(&crate::format_table(
                "scenario task wall times (slowest p95 first)",
                &["scenario", "tasks", "retries", "p50 s", "p95 s", "max s"],
                &rows,
            ));
        }

        if self.quarantined.is_empty() {
            out.push_str("\nquarantined: none\n");
        } else {
            out.push_str("\nquarantined:\n");
            for q in &self.quarantined {
                let last_error = q.errors.last().map_or("?", String::as_str);
                out.push_str(&format!(
                    "  suite {} scenario {} after {} attempt(s): {last_error}\n",
                    q.suite.cache_dir(),
                    q.scenario,
                    q.attempts
                ));
            }
        }

        match &self.trace {
            None => out.push_str("\ntrace: none (run `sweep run --trace` to record one)\n"),
            Some(t) => {
                out.push_str(&format!(
                    "\ntrace: {} events on {} track(s); backoff total {:.3} s\n",
                    t.events, t.tracks, t.backoff_s
                ));
                let fmt_counts = |counts: &[(String, usize)]| {
                    counts
                        .iter()
                        .map(|(name, n)| format!("{name}={n}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                if !t.span_counts.is_empty() {
                    out.push_str(&format!("  spans: {}\n", fmt_counts(&t.span_counts)));
                }
                if !t.instant_counts.is_empty() {
                    out.push_str(&format!("  instants: {}\n", fmt_counts(&t.instant_counts)));
                }
            }
        }
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Summarizes `dir/trace.json`, if present and parseable.
fn load_trace_summary(dir: &Path) -> Option<TraceSummary> {
    let text = std::fs::read_to_string(dir.join(TRACE_FILE)).ok()?;
    let (events, _metrics) = parse_chrome_trace(&text).ok()?;
    let mut tracks: Vec<u64> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut spans: HashMap<String, usize> = HashMap::new();
    let mut instants: HashMap<String, usize> = HashMap::new();
    let mut backoff_ns: u64 = 0;
    for e in &events {
        match e.phase {
            TracePhase::Complete { dur_ns, .. } => {
                *spans.entry(e.name.clone()).or_default() += 1;
                if e.name == "backoff" {
                    backoff_ns += dur_ns;
                }
            }
            TracePhase::Instant { .. } => {
                *instants.entry(e.name.clone()).or_default() += 1;
            }
        }
    }
    let sorted = |m: HashMap<String, usize>| {
        let mut v: Vec<(String, usize)> = m.into_iter().collect();
        v.sort();
        v
    };
    Some(TraceSummary {
        events: events.len(),
        tracks: tracks.len(),
        span_counts: sorted(spans),
        instant_counts: sorted(instants),
        backoff_s: backoff_ns as f64 / 1e9,
    })
}

/// One artifact's comparison inside a [`BaselineVerdict`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactVerdict {
    /// Artifact file name (relative to both stores; for a file pair, the
    /// baseline file's name).
    pub file: String,
    /// Whether it passed.
    pub pass: bool,
    /// Metric keys compared.
    pub compared: usize,
    /// Failure descriptions (tolerance violations, structural breaks,
    /// missing/unparseable files), empty on pass.
    pub failures: Vec<String>,
}

/// The machine-readable outcome of [`diff_baseline`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BaselineVerdict {
    /// Per-artifact outcomes, in the baseline manifest's order.
    pub artifacts: Vec<ArtifactVerdict>,
    /// Artifacts the candidate has that the baseline does not declare
    /// (noted, not a failure — schemas may grow).
    pub extra_in_candidate: Vec<String>,
}

impl BaselineVerdict {
    /// Whether every baseline artifact exists in the candidate and is
    /// within tolerance.
    #[must_use]
    pub fn is_pass(&self) -> bool {
        self.artifacts.iter().all(|a| a.pass)
    }

    /// The one-line JSON verdict the `diff-baseline` command prints on
    /// stdout (machine-readable; the future sweep service's response body).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("baseline_verdict")),
            ("pass", Json::from(self.is_pass())),
            ("artifacts", Json::from(self.artifacts.len() as u64)),
            (
                "failed",
                Json::from(self.artifacts.iter().filter(|a| !a.pass).count() as u64),
            ),
            (
                "compared",
                Json::from(self.artifacts.iter().map(|a| a.compared as u64).sum::<u64>()),
            ),
            (
                "failures",
                Json::Arr(
                    self.artifacts
                        .iter()
                        .filter(|a| !a.pass)
                        .map(|a| {
                            Json::obj([
                                ("file", Json::from(a.file.as_str())),
                                (
                                    "errors",
                                    Json::Arr(
                                        a.failures
                                            .iter()
                                            .map(|f| Json::from(f.as_str()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "extra_in_candidate",
                Json::Arr(
                    self.extra_in_candidate
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable verdict (stderr companion of the JSON).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.artifacts {
            if a.pass {
                out.push_str(&format!("  ok   {} ({} keys)\n", a.file, a.compared));
            } else {
                out.push_str(&format!("  FAIL {}\n", a.file));
                for f in &a.failures {
                    out.push_str(&format!("       {f}\n"));
                }
            }
        }
        for f in &self.extra_in_candidate {
            out.push_str(&format!("  note {f}: only in candidate (ignored)\n"));
        }
        out.push_str(&format!(
            "baseline diff: {} artifact(s), {} failed — {}\n",
            self.artifacts.len(),
            self.artifacts.iter().filter(|a| !a.pass).count(),
            if self.is_pass() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// The artifact files a store must provide: the `artifact` fields of its
/// manifest's `experiment` lines when a manifest exists, else every
/// `*.jsonl` in the directory minus the manifest/journal bookkeeping files.
fn baseline_artifact_set(dir: &Path) -> Result<Vec<String>, String> {
    if let Ok(text) = std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
        let mut files = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line)
                .map_err(|e| format!("{}: line {}: {e}", dir.join(MANIFEST_FILE).display(), n + 1))?;
            if v.get("type").and_then(Json::as_str) == Some("experiment") {
                if let Some(file) = v.get("artifact").and_then(Json::as_str) {
                    files.push(file.to_string());
                }
            }
        }
        return Ok(files);
    }
    // Manifest-less store: fall back to a directory scan.
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().to_string();
        let stem = name.strip_suffix(".jsonl");
        if let Some(stem) = stem {
            if stem != "manifest" && stem != "journal" {
                files.push(name);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Reads and parses the tolerance spec at `path` (the `--tolerances` file
/// of `sweep` and `dse`, the `tolerances` field of a serve diff request).
///
/// # Errors
///
/// A message naming `path`: the file could not be read, or it holds no
/// valid spec.
pub fn load_tolerances(path: &str) -> Result<ToleranceSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read tolerance file {path}: {e}"))?;
    ToleranceSpec::from_json_str(&text).map_err(|e| format!("bad tolerance file {path}: {e}"))
}

/// Diffs `baseline` against `candidate` under `spec`: two directories, or
/// two artifact files. A directory pair diffs every artifact the baseline
/// store declares against the same file in the candidate store, and notes
/// candidate-only artifacts without failing them. A file pair diffs the one
/// artifact. A missing or unparseable file on either side fails its
/// artifact, naming the file.
///
/// # Errors
///
/// A message when the baseline path itself is unusable (no such file or
/// directory, a malformed manifest, no declared artifacts) — an
/// environment error, distinct from drift.
pub fn diff_baseline(
    baseline: &Path,
    candidate: &Path,
    spec: &ToleranceSpec,
) -> Result<BaselineVerdict, String> {
    if baseline.is_file() {
        return Ok(BaselineVerdict {
            artifacts: vec![diff_one(baseline, candidate, spec)],
            extra_in_candidate: Vec::new(),
        });
    }
    let files = baseline_artifact_set(baseline)?;
    if files.is_empty() {
        return Err(format!(
            "baseline store {} declares no artifacts",
            baseline.display()
        ));
    }
    let mut verdict = BaselineVerdict::default();
    for file in &files {
        verdict
            .artifacts
            .push(diff_one(&baseline.join(file), &candidate.join(file), spec));
    }
    // Candidate-only .jsonl artifacts (schema growth) are worth a note.
    if let Ok(entries) = std::fs::read_dir(candidate) {
        let mut extra: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().to_string();
                let stem = name.strip_suffix(".jsonl")?;
                (stem != "manifest" && stem != "journal" && !files.contains(&name))
                    .then_some(name)
            })
            .collect();
        extra.sort();
        verdict.extra_in_candidate = extra;
    }
    Ok(verdict)
}

/// The per-file step of every golden diff: reads and parses both artifact
/// files and diffs them under `spec`. A file that cannot be read or parsed
/// fails the artifact with one message naming its side and path.
fn diff_one(baseline: &Path, candidate: &Path, spec: &ToleranceSpec) -> ArtifactVerdict {
    let read = |side: &str, path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| RunArtifact::parse_jsonl(&text).map_err(|e| e.to_string()))
            .map_err(|e| format!("{side} {}: {e}", path.display()))
    };
    let file = baseline.file_name().unwrap_or_default().to_string_lossy().into_owned();
    match read("baseline", baseline).and_then(|base| Ok((base, read("candidate", candidate)?))) {
        Ok((base, cand)) => {
            let diff = diff_artifacts(&base, &cand, spec);
            ArtifactVerdict {
                file,
                pass: diff.is_pass(),
                compared: diff.compared(),
                failures: diff
                    .failures()
                    .map(ToString::to_string)
                    .chain(diff.manifest_mismatch.iter().map(|m| format!("manifest mismatch: {m}")))
                    .collect(),
            }
        }
        Err(e) => ArtifactVerdict { file, pass: false, compared: 0, failures: vec![e] },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_FILE;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(2.5));
        // A single sample is every quantile of itself; an empty set has
        // none (rather than a panic or a fabricated value).
        assert_eq!(quantile_sorted(&[7.5], 0.95), Some(7.5));
        assert_eq!(quantile_sorted(&[], 0.95), None);
        assert_eq!(quantile_sorted(&[], 0.0), None);
    }

    /// A degraded journal — records with empty `attempt_wall_s`, v1 records
    /// without metadata, and a lone single-attempt record — must neither
    /// panic nor fabricate quantiles: the empty/v1 records contribute no
    /// timing row, and the single sample is its own p50/p95/max.
    #[test]
    fn degraded_journal_timing_rows_are_pinned() {
        let dir = std::env::temp_dir().join(format!("vs-report-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            b"{\"type\":\"suite\",\"workload_scale\":0.02,\"max_cycles\":1000,\"seed\":42}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join(JOURNAL_FILE),
            concat!(
                // Metadata lost mid-degradation: walls recorded as empty.
                "{\"type\":\"scenario_done\",\"suite\":\"a1\",\"scenario\":\"bfs\",\
                 \"file\":\"f\",\"checksum\":\"c\",\"attempts\":1,\"attempt_wall_s\":[]}\n",
                // v1 record: no metadata at all.
                "{\"type\":\"scenario_done\",\"suite\":\"a1\",\"scenario\":\"hotspot\",\
                 \"file\":\"f\",\"checksum\":\"c\"}\n",
                // One healthy single-attempt record.
                "{\"type\":\"scenario_done\",\"suite\":\"a1\",\"scenario\":\"srad\",\
                 \"file\":\"f\",\"checksum\":\"c\",\"attempts\":1,\"attempt_wall_s\":[0.25]}\n",
            ),
        )
        .unwrap();
        let report = RunReport::load(&dir).unwrap();
        assert_eq!(report.scenarios.len(), 1, "{:?}", report.scenarios);
        let t = &report.scenarios[0];
        assert_eq!(t.scenario, "srad");
        assert_eq!((t.tasks, t.retries), (1, 0));
        assert_eq!((t.p50_s, t.p95_s, t.max_s), (0.25, 0.25, 0.25));
        // Rendering the report must also survive the degraded rows.
        let _ = report.render();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baseline_set_prefers_manifest_over_scan() {
        let dir = std::env::temp_dir().join(format!("vs-report-set-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stray.jsonl"), b"{}\n").unwrap();
        // Without a manifest: directory scan, bookkeeping excluded.
        std::fs::write(dir.join("journal.jsonl"), b"\n").unwrap();
        assert_eq!(baseline_artifact_set(&dir).unwrap(), vec!["stray.jsonl"]);
        // With a manifest: only declared artifacts count.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            concat!(
                "{\"type\":\"suite\",\"experiments\":1}\n",
                "{\"type\":\"experiment\",\"id\":\"fig8\",\"artifact\":\"fig8.jsonl\"}\n",
                "{\"type\":\"experiment\",\"id\":\"bad\",\"failed\":true}\n",
            ),
        )
        .unwrap();
        assert_eq!(baseline_artifact_set(&dir).unwrap(), vec!["fig8.jsonl"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdict_json_carries_pass_and_failures() {
        let verdict = BaselineVerdict {
            artifacts: vec![
                ArtifactVerdict {
                    file: "a.jsonl".to_string(),
                    pass: true,
                    compared: 10,
                    failures: vec![],
                },
                ArtifactVerdict {
                    file: "b.jsonl".to_string(),
                    pass: false,
                    compared: 4,
                    failures: vec!["pde_avg drifted".to_string()],
                },
            ],
            extra_in_candidate: vec!["c.jsonl".to_string()],
        };
        assert!(!verdict.is_pass());
        let text = verdict.to_json().to_string_compact();
        assert!(text.contains("\"pass\":false"), "{text}");
        assert!(text.contains("\"failed\":1"), "{text}");
        assert!(text.contains("pde_avg drifted"), "{text}");
        assert!(text.contains("c.jsonl"), "{text}");
        let human = verdict.render();
        assert!(human.contains("FAIL b.jsonl"), "{human}");
        assert!(human.contains("ok   a.jsonl"), "{human}");
    }
}
