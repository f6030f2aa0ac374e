//! # vs-bench — experiment library, parallel sweep runner, and golden diffs
//!
//! Every table and figure of the paper's evaluation section is a named,
//! seeded experiment function ([`ExperimentId::run`]); `sweep show <id>`
//! (`cargo run --release -p vs-bench --bin sweep -- show <id>`) prints one.
//! `sweep run` executes the whole catalogue across a worker pool, writes one
//! versioned `vs-telemetry` JSONL artifact per experiment plus a suite
//! manifest, checks the EXPERIMENTS.md headline claims, and can diff a run
//! against the checked-in goldens (`goldens/`) under per-metric tolerances.
//!
//! Figure runs honour two environment variables:
//!
//! * `VS_BENCH_SCALE` — kernel-iteration scale factor (default 0.15; the
//!   paper-length runs use 1.0 and take correspondingly longer),
//! * `VS_BENCH_MAX_CYCLES` — per-run cycle cap (default 1,200,000).
//!
//! Malformed values are rejected with an error naming the variable — never
//! silently replaced by a default.
//!
//! Determinism contract: an experiment's artifact depends only on its
//! [`RunSettings`], never on thread count, scheduling order, or wall time.
//! Wall-clock timings travel in schema-tagged wall-time events
//! ([`vs_telemetry::Event::is_wall_time`]) that every comparison excludes.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use vs_core::{CosimConfig, CosimReport, PdsKind, PowerManagement};
use vs_gpu::all_benchmarks;
use vs_telemetry::json::Json;

pub mod campaign;
pub mod chaos;
pub mod claims;
pub mod cli;
pub mod dse;
pub mod experiments;
pub mod journal;
pub mod obs;
pub mod report;
pub mod serve;
pub mod shard;
pub mod space;
pub mod sweep;

pub use experiments::{ExperimentId, ExperimentOutput, Recorder};
pub use shard::Executor;

/// Installs the process panic hook for the artifact-writing binaries.
///
/// Panics *inside* a shard isolation boundary are the executor's business
/// (they become structured task errors, retried and quarantined); the hook
/// prints one concise line and stands aside. A panic anywhere else is an
/// internal error: the hook prints its [`internal_error_line`] on stderr —
/// machine-readable by whatever supervises the process — and exits 3, the
/// binaries' internal-error code (see the exit contract in `bin/sweep.rs`).
pub fn install_panic_hook(component: &'static str) {
    std::panic::set_hook(Box::new(move |info| {
        if shard::isolation_active() {
            eprintln!("  (isolated panic, will retry: {info})");
            return;
        }
        eprintln!("{}", internal_error_line(component, &info.to_string()));
        std::process::exit(3);
    }));
}

/// The panic hook's one-line JSON report of an internal error in
/// `component`: `{"type":"internal_error","component":…,"message":…}`. It
/// goes to stderr only; no journal ever holds one.
pub fn internal_error_line(component: &str, message: &str) -> String {
    Json::obj([
        ("type", Json::from("internal_error")),
        ("component", Json::from(component)),
        ("message", Json::from(message)),
    ])
    .to_string_compact()
}

/// Benchmark names in the paper's presentation order.
pub fn benchmark_names() -> Vec<String> {
    all_benchmarks().into_iter().map(|b| b.name).collect()
}

/// A malformed run-settings value: which variable, what it held, and why it
/// was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingsError {
    /// The environment variable (or CLI option) at fault.
    pub var: &'static str,
    /// The offending value.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for SettingsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for SettingsError {}

/// Run settings shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSettings {
    /// Kernel-iteration scale.
    pub workload_scale: f64,
    /// Cycle cap per run.
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            workload_scale: 0.15,
            max_cycles: 1_200_000,
            seed: 42,
        }
    }
}

impl RunSettings {
    /// Parses settings from optional raw strings (`None` = use the
    /// default). This is the pure core of [`RunSettings::try_from_env`],
    /// testable without touching the process environment.
    ///
    /// # Errors
    ///
    /// Returns a [`SettingsError`] naming the variable when a value is
    /// present but malformed: the scale must parse as a finite float > 0,
    /// the cycle cap as an integer > 0.
    pub fn parse(
        scale: Option<&str>,
        max_cycles: Option<&str>,
    ) -> Result<RunSettings, SettingsError> {
        let mut settings = RunSettings::default();
        if let Some(raw) = scale {
            let parsed: f64 = raw.trim().parse().map_err(|_| SettingsError {
                var: "VS_BENCH_SCALE",
                value: raw.to_string(),
                reason: "must be a number",
            })?;
            if !parsed.is_finite() || parsed <= 0.0 {
                return Err(SettingsError {
                    var: "VS_BENCH_SCALE",
                    value: raw.to_string(),
                    reason: "must be finite and > 0",
                });
            }
            settings.workload_scale = parsed;
        }
        if let Some(raw) = max_cycles {
            let parsed: u64 = raw.trim().parse().map_err(|_| SettingsError {
                var: "VS_BENCH_MAX_CYCLES",
                value: raw.to_string(),
                reason: "must be a positive integer",
            })?;
            if parsed == 0 {
                return Err(SettingsError {
                    var: "VS_BENCH_MAX_CYCLES",
                    value: raw.to_string(),
                    reason: "must be > 0",
                });
            }
            settings.max_cycles = parsed;
        }
        Ok(settings)
    }

    /// Reads settings from `VS_BENCH_SCALE` / `VS_BENCH_MAX_CYCLES`.
    ///
    /// # Errors
    ///
    /// Returns a [`SettingsError`] when a variable is set but malformed
    /// (unset variables fall back to the defaults).
    pub fn try_from_env() -> Result<RunSettings, SettingsError> {
        let scale = std::env::var("VS_BENCH_SCALE").ok();
        let cycles = std::env::var("VS_BENCH_MAX_CYCLES").ok();
        RunSettings::parse(scale.as_deref(), cycles.as_deref())
    }

    /// The reduced-cycle profile the checked-in goldens are generated at
    /// (fast enough for CI, still reproduces every headline claim).
    pub fn golden_profile() -> RunSettings {
        RunSettings {
            workload_scale: 0.04,
            max_cycles: 250_000,
            seed: 42,
        }
    }

    /// A minimal profile for determinism tests: small enough to run the
    /// settings-dependent experiments in seconds.
    pub fn tiny_profile() -> RunSettings {
        RunSettings {
            workload_scale: 0.02,
            max_cycles: 60_000,
            seed: 42,
        }
    }

    /// Builds a co-sim config for a PDS kind under these settings.
    pub fn config(&self, pds: PdsKind) -> CosimConfig {
        CosimConfig {
            pds,
            workload_scale: self.workload_scale,
            max_cycles: self.max_cycles,
            seed: self.seed,
            ..CosimConfig::default()
        }
    }
}

/// The four PDS configurations in Table III order.
pub fn pds_configs() -> [PdsKind; 4] {
    [
        PdsKind::ConventionalVrm,
        PdsKind::SingleLayerIvr,
        PdsKind::VsCircuitOnly { area_mult: 1.72 },
        PdsKind::VsCrossLayer { area_mult: 0.2 },
    ]
}

/// Baseline cache: conventional-PDS runs per benchmark, used to normalize
/// performance penalties and energy savings.
pub struct BaselineCache {
    runs: HashMap<String, CosimReport>,
}

impl BaselineCache {
    /// The conventional baseline suite, as an [`Executor::run_suites`]
    /// request: experiments batch it with their own suites.
    pub fn suite(settings: &RunSettings) -> (CosimConfig, PowerManagement) {
        (settings.config(PdsKind::ConventionalVrm), PowerManagement::default())
    }

    /// Indexes the baseline suite's reports by benchmark.
    pub fn new(reports: &[CosimReport]) -> Self {
        let runs = reports
            .iter()
            .map(|r| (r.benchmark.clone(), r.clone()))
            .collect();
        BaselineCache { runs }
    }

    /// The baseline run for a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark was not in the suite.
    pub fn get(&self, name: &str) -> &CosimReport {
        &self.runs[name]
    }

    /// Performance penalty of `run` vs its baseline (fraction; 0.03 = 3 %).
    pub fn perf_penalty(&self, run: &CosimReport) -> f64 {
        let base = self.get(&run.benchmark);
        run.cycles as f64 / base.cycles as f64 - 1.0
    }

    /// Net energy saving of `run` vs its baseline (fraction), comparing
    /// total board input energy for the same work.
    pub fn net_energy_saving(&self, run: &CosimReport) -> f64 {
        let base = self.get(&run.benchmark);
        1.0 - run.ledger.board_input_j / base.ledger.board_input_j
    }
}

/// Formats a plain-text table (header row plus aligned columns) with a
/// leading blank line, as every figure prints it.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Prints a plain-text table: header row plus aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, headers, rows));
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats volts with three decimals.
pub fn volts(x: f64) -> String {
    format!("{x:.3} V")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_error_line_is_pinned() {
        assert_eq!(
            internal_error_line("sweep", "panicked at 'boom \"x\"'"),
            "{\"type\":\"internal_error\",\"component\":\"sweep\",\
             \"message\":\"panicked at 'boom \\\"x\\\"'\"}"
        );
    }

    #[test]
    fn twelve_names_in_order() {
        let n = benchmark_names();
        assert_eq!(n.len(), 12);
        assert_eq!(n[0], "backprop");
    }

    #[test]
    fn settings_produce_config() {
        let s = RunSettings {
            workload_scale: 0.1,
            max_cycles: 1000,
            seed: 7,
        };
        let c = s.config(PdsKind::ConventionalVrm);
        assert_eq!(c.max_cycles, 1000);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn parse_defaults_when_unset() {
        assert_eq!(
            RunSettings::parse(None, None).unwrap(),
            RunSettings::default()
        );
    }

    #[test]
    fn parse_accepts_valid_overrides() {
        let s = RunSettings::parse(Some("0.5"), Some("9000")).unwrap();
        assert_eq!(s.workload_scale, 0.5);
        assert_eq!(s.max_cycles, 9000);
        // Whitespace is tolerated; seed stays fixed.
        let s = RunSettings::parse(Some(" 1.0 "), None).unwrap();
        assert_eq!(s.workload_scale, 1.0);
        assert_eq!(s.seed, 42);
    }

    #[test]
    fn parse_rejects_malformed_with_named_variable() {
        for bad in ["abc", "", "NaN", "inf", "-0.1", "0"] {
            let e = RunSettings::parse(Some(bad), None).unwrap_err();
            assert_eq!(e.var, "VS_BENCH_SCALE", "scale {bad:?}");
            assert!(e.to_string().contains("VS_BENCH_SCALE"));
        }
        for bad in ["abc", "", "1.5", "-3", "0"] {
            let e = RunSettings::parse(None, Some(bad)).unwrap_err();
            assert_eq!(e.var, "VS_BENCH_MAX_CYCLES", "cycles {bad:?}");
            assert!(e.to_string().contains(&format!("{bad:?}")));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.923), "92.3%");
        assert_eq!(volts(0.8), "0.800 V");
    }

    #[test]
    fn format_table_matches_printed_layout() {
        let t = format_table(
            "T",
            &["a", "long"],
            &[vec!["xx".into(), "1".into()]],
        );
        assert_eq!(t, "\n== T ==\n a  long\nxx     1\n");
    }
}
