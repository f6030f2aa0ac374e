//! Tier-2 golden-artifact regression suite (`#[ignore]`-gated; run via
//! `scripts/ci.sh --golden` or
//! `cargo test --release -p vs-bench --test golden -- --ignored`).
//!
//! Every EXPERIMENTS.md headline row is an executable check here: the full
//! catalogue is re-run at the golden profile and diffed against the
//! checked-in `goldens/*.jsonl` under `goldens/tolerances.json`, the
//! headline claims are asserted, and the sweep runner is shown to be
//! bit-identical across worker counts (via subprocesses, so nothing shared
//! in one process can mask a scheduling dependence).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vs_bench::claims::check_claims;
use vs_bench::sweep::{run_sweep, SweepOptions};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_telemetry::{diff_artifacts, RunArtifact, ToleranceSpec};

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

fn load_artifact(path: &Path) -> RunArtifact {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    RunArtifact::parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn tolerances() -> ToleranceSpec {
    let path = goldens_dir().join("tolerances.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ToleranceSpec::from_json_str(&text).expect("valid tolerance file")
}

/// The full catalogue at the golden profile matches the checked-in goldens
/// within the checked-in tolerances, and every headline claim passes.
#[test]
#[ignore = "tier-2: minutes of simulation; run via scripts/ci.sh --golden"]
fn golden_artifacts_and_headline_claims() {
    let result = run_sweep(
        &Executor::default(),
        &SweepOptions {
            jobs: 0,
            only: None,
            settings: RunSettings::golden_profile(),
        },
    );
    let spec = tolerances();
    let mut failures = Vec::new();
    for run in &result.runs {
        let golden_path = goldens_dir().join(format!("{}.jsonl", run.id.name()));
        let golden = load_artifact(&golden_path);
        let report = diff_artifacts(&golden, &run.output.artifact, &spec);
        if !report.is_pass() {
            failures.push(format!("{}:\n{report}", run.id.name()));
        }
    }
    assert!(failures.is_empty(), "golden diffs failed:\n{}", failures.join("\n"));

    let artifacts: Vec<(ExperimentId, &RunArtifact)> = result
        .runs
        .iter()
        .map(|r| (r.id, &r.output.artifact))
        .collect();
    let claim_failures: Vec<String> = check_claims(&artifacts)
        .into_iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{} = {:?} not in [{}, {}]", c.claim.name, c.value, c.claim.lo, c.claim.hi))
        .collect();
    assert!(claim_failures.is_empty(), "headline claims failed:\n{}", claim_failures.join("\n"));
}

/// There is a checked-in golden (and a tolerance file) for every experiment
/// in the catalogue — a new experiment cannot silently skip regression
/// coverage.
#[test]
#[ignore = "tier-2: run via scripts/ci.sh --golden"]
fn every_experiment_has_a_golden() {
    let _ = tolerances();
    for id in ExperimentId::ALL {
        let path = goldens_dir().join(format!("{}.jsonl", id.name()));
        assert!(path.is_file(), "missing golden {}", path.display());
        let golden = load_artifact(&path);
        assert!(golden.manifest().is_some(), "{}: golden has no manifest", id.name());
        assert!(golden.metrics().is_some(), "{}: golden has no metrics", id.name());
        // Goldens are blessed deterministically: no wall-time events.
        assert!(
            golden.events.iter().all(|e| !e.is_wall_time()),
            "{}: golden carries wall-time events; re-bless with --deterministic",
            id.name()
        );
    }
}

/// Runs the `sweep` binary in a subprocess and returns the deterministic
/// JSONL of every artifact it wrote, keyed by experiment name.
fn sweep_subprocess(dir: &Path, jobs: usize, only: &str) -> BTreeMap<String, String> {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "run",
            "--profile",
            "tiny",
            "--only",
            only,
            "--jobs",
            &jobs.to_string(),
            "--out",
        ])
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("launch sweep");
    // Claim checking fails at the tiny profile (off-spec by design); only
    // the artifacts matter here, so accept exit 0 or 1 but not launch/IO
    // failures.
    assert!(
        matches!(status.code(), Some(0 | 1)),
        "sweep subprocess died: {status:?}"
    );
    only.split(',')
        .map(|name| {
            let artifact = load_artifact(&dir.join(format!("{name}.jsonl")));
            (name.to_string(), artifact.deterministic_jsonl())
        })
        .collect()
}

/// The same sweep on 1, 2, and 8 workers produces byte-identical
/// deterministic artifacts: scheduling must not leak into results.
#[test]
#[ignore = "tier-2: run via scripts/ci.sh --golden"]
fn sweep_is_bit_identical_across_worker_counts() {
    // A settings-dependent suite run (fig13), a cheap constant experiment
    // (fig9), a suite-sharing sibling (fig17), and table3 — enough overlap
    // to exercise the memo cache under contention.
    let only = "table3,fig9,fig13,fig17";
    let base = std::env::temp_dir().join(format!("vs-sweep-det-{}", std::process::id()));
    let mut runs = Vec::new();
    for jobs in [1usize, 2, 8] {
        let dir = base.join(format!("j{jobs}"));
        runs.push((jobs, sweep_subprocess(&dir, jobs, only)));
    }
    let (_, reference) = &runs[0];
    for (jobs, artifacts) in &runs[1..] {
        for (name, jsonl) in artifacts {
            assert_eq!(
                jsonl,
                reference.get(name).expect("same artifact set"),
                "artifact {name} differs between --jobs 1 and --jobs {jobs}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// `sweep --resume` round-trip through the real binary: a completed run's
/// directory is damaged (torn artifact, corrupted journal line), and a
/// resumed run heals it to artifacts byte-identical with a fresh sweep.
#[test]
#[ignore = "tier-2: run via scripts/ci.sh --golden"]
fn sweep_resume_round_trip_heals_damage() {
    let only = "fig14,fig9";
    let base = std::env::temp_dir().join(format!("vs-sweep-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let fresh_dir = base.join("fresh");
    let resumed_dir = base.join("resumed");
    let fresh = sweep_subprocess(&fresh_dir, 2, only);
    let _ = sweep_subprocess(&resumed_dir, 2, only);

    // Damage the second run's directory the way a SIGKILL mid-write would:
    // tear one artifact mid-byte and corrupt the final journal line.
    let artifact = resumed_dir.join("fig14.jsonl");
    let bytes = std::fs::read(&artifact).unwrap();
    std::fs::write(&artifact, &bytes[..bytes.len() / 3]).unwrap();
    let journal = resumed_dir.join("journal.jsonl");
    let mut text = std::fs::read_to_string(&journal).unwrap();
    text.truncate(text.len() - 7); // tear the last record mid-line
    std::fs::write(&journal, text).unwrap();

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["run", "--profile", "tiny", "--only", only, "--jobs", "2", "--resume"])
        .arg(&resumed_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("launch sweep --resume");
    assert!(
        matches!(status.code(), Some(0 | 1)),
        "resume subprocess died: {status:?}"
    );
    for name in only.split(',') {
        let healed = load_artifact(&resumed_dir.join(format!("{name}.jsonl")));
        assert_eq!(
            healed.deterministic_jsonl(),
            *fresh.get(name).expect("fresh artifact"),
            "artifact {name} differs after --resume"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Every settings-dependent experiment actually responds to the settings,
/// and every constant experiment is invariant to them — the overrides are
/// honoured uniformly across the catalogue.
#[test]
#[ignore = "tier-2: run via scripts/ci.sh --golden"]
fn settings_overrides_are_honoured_uniformly() {
    // The two profiles must differ by enough to move the model: workload
    // scale quantizes to whole kernel iterations (`round(iters * scale)`),
    // so a sub-resolution nudge like 0.02 -> 0.03 can round to identical
    // workloads. tiny (0.02/60k) vs golden (0.04/250k) doubles every
    // kernel's iteration count.
    let a = RunSettings::tiny_profile();
    let b = RunSettings::golden_profile();
    let run_a = run_sweep(&Executor::default(), &SweepOptions { jobs: 0, only: None, settings: a });
    let run_b = run_sweep(&Executor::default(), &SweepOptions { jobs: 0, only: None, settings: b });
    for (ra, rb) in run_a.runs.iter().zip(&run_b.runs) {
        assert_eq!(ra.id, rb.id);
        // Manifests must record the settings either way.
        let (ma, mb) = (
            ra.output.artifact.manifest().expect("manifest"),
            rb.output.artifact.manifest().expect("manifest"),
        );
        assert_eq!(ma.workload_scale, a.workload_scale, "{}", ra.id.name());
        assert_eq!(mb.workload_scale, b.workload_scale, "{}", rb.id.name());
        let gauges = |r: &vs_bench::sweep::ExperimentRun| {
            r.output.artifact.metrics().expect("metrics").gauges.clone()
        };
        if ra.id.settings_dependent() {
            // A dependent experiment may coincide across profiles only when
            // its metric is pinned at a saturation floor on both sides
            // (fig12: every penalty is clamped at exactly 0 in this decap
            // regime — see the EXPERIMENTS.md calibration notes). Anything
            // else coinciding means the overrides were dropped.
            let (ga, gb) = (gauges(ra), gauges(rb));
            let saturated =
                ga.iter().all(|(_, v)| *v == 0.0) && gb.iter().all(|(_, v)| *v == 0.0);
            assert!(
                ga != gb || saturated,
                "{} claims settings-dependence but did not respond to the overrides",
                ra.id.name()
            );
        } else {
            assert_eq!(
                gauges(ra),
                gauges(rb),
                "{} claims settings-independence but changed under the overrides",
                ra.id.name()
            );
            assert_eq!(ra.output.text, rb.output.text, "{}", ra.id.name());
        }
    }
}
