//! The fault-injection campaign as a library: the scenario catalogue, the
//! runner, and the table row the `fault_campaign` binary prints.
//!
//! Each cell's result is a [`FaultCampaignRow`] end to end, and the two
//! views of its error are pinned by tests: the human table keeps only the
//! headline (everything before the first `"; last error"`), while the JSONL
//! `fault_row` event carries the **full** error string — truncating the
//! machine-readable artifact would destroy exactly the detail a
//! post-mortem needs.
//!
//! [`run_campaign`] executes the whole campaign on the caller's
//! [`Executor`]: its claim loop spreads the cells over the workers, and each
//! cell runs as a one-member group ([`vs_core::CosimPool::run_group`],
//! its fault plan riding in the [`GroupRun`]) through the executor's
//! attempt loop — the calling worker's long-lived pool shard inside an
//! isolation boundary, panics retried with seeded backoff — so a cell that
//! exhausts its attempts lands as a `quarantined` verdict instead of
//! killing the campaign. A cell's cycle budget is unlimited: its run ends
//! at the cycle cap, and a solver failure is the cell's `aborted` verdict,
//! not a retry. The campaign records no spans of its own: a traced
//! executor records each cell's attempts. Cells fill canonical slots, so
//! the row list (and every artifact built from it) is byte-identical at
//! any `--jobs`.

use vs_control::{ActuatorFault, DetectorFault};
use vs_core::{
    CrIvrFault, CycleBudget, FaultKind, FaultPlan, FaultWindow, GroupRun, LoadGlitch, PdsKind,
    PowerManagement, ScenarioId, SupervisedReport, SupervisorConfig,
};
use vs_gpu::WorkloadProfile;
use vs_telemetry::FaultCampaignRow;

use crate::obs;
use crate::shard::MAX_ATTEMPTS;
use crate::sweep::effective_jobs;
use crate::{pct, volts, Executor, RunSettings};

/// One campaign cell: a named fault schedule.
pub struct FaultScenario {
    /// Display name (also the JSONL `fault` field).
    pub name: &'static str,
    /// Only meaningful with the voltage-smoothing controller present.
    pub needs_controller: bool,
    /// The seeded fault schedule.
    pub plan: FaultPlan,
}

/// The campaign's fault catalogue: every mechanism (sensing, actuation,
/// CR-IVR, load) at the severities the resilience table reports.
pub fn fault_scenarios(seed: u64) -> Vec<FaultScenario> {
    // Faults land at cycle 1 000 — after the stack settles, early enough to
    // sit inside even the shortest scaled-down runs.
    let onset = 1_000;
    let glitch = FaultWindow::transient(onset, 2_000);
    vec![
        FaultScenario {
            name: "baseline (no fault)",
            needs_controller: false,
            plan: FaultPlan::none(),
        },
        FaultScenario {
            name: "detector stuck at 1.0 V",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Detector {
                    sm: 0,
                    fault: DetectorFault::StuckAt { volts: 1.0 },
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "detector stuck at 0.0 V",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Detector {
                    sm: 0,
                    fault: DetectorFault::StuckAt { volts: 0.0 },
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "detector noise 50 mV",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Detector {
                    sm: 0,
                    fault: DetectorFault::Noise { sigma_v: 0.05 },
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "detector 50% dropout",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Detector {
                    sm: 0,
                    fault: DetectorFault::Dropout { p_drop: 0.5 },
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "DIWS stuck full width",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Actuator {
                    sm: 0,
                    fault: ActuatorFault::DiwsStuck { issue_width: 2.0 },
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "FII disabled",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Actuator {
                    sm: 4,
                    fault: ActuatorFault::FiiDisabled,
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "DCC DAC railed",
            needs_controller: true,
            plan: FaultPlan::new(seed).with(
                FaultKind::Actuator {
                    sm: 4,
                    fault: ActuatorFault::DccRailed,
                },
                FaultWindow::ALWAYS,
            ),
        },
        FaultScenario {
            name: "CR-IVR col 0 offline",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::CrIvr {
                    column: 0,
                    fault: CrIvrFault::Offline,
                },
                FaultWindow::from(onset),
            ),
        },
        FaultScenario {
            name: "CR-IVR col 0 at 50%",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::CrIvr {
                    column: 0,
                    fault: CrIvrFault::Degraded { factor: 0.5 },
                },
                FaultWindow::from(onset),
            ),
        },
        FaultScenario {
            name: "CR-IVR col 0 at 25%",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::CrIvr {
                    column: 0,
                    fault: CrIvrFault::Degraded { factor: 0.25 },
                },
                FaultWindow::from(onset),
            ),
        },
        FaultScenario {
            name: "NaN telemetry burst",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::LoadGlitch {
                    sm: 5,
                    glitch: LoadGlitch::NonFinite,
                },
                glitch,
            ),
        },
        FaultScenario {
            name: "load surge +60 W",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::LoadGlitch {
                    sm: 5,
                    glitch: LoadGlitch::Surge { watts: 60.0 },
                },
                glitch,
            ),
        },
        FaultScenario {
            name: "short to rail (1 GW)",
            needs_controller: false,
            plan: FaultPlan::new(seed).with(
                FaultKind::LoadGlitch {
                    sm: 5,
                    glitch: LoadGlitch::Surge { watts: 1e9 },
                },
                FaultWindow::from(onset),
            ),
        },
    ]
}

/// The two PDS configurations the campaign stresses, in table order.
pub fn campaign_pds() -> [PdsKind; 2] {
    [
        PdsKind::VsCircuitOnly { area_mult: 1.72 },
        PdsKind::VsCrossLayer { area_mult: 0.2 },
    ]
}

/// Runs the full fault campaign — every applicable (PDS, fault scenario)
/// cell — on `exec` across `jobs` workers, returning the rows in
/// canonical (serial-loop) order.
///
/// Each cell runs through the executor's attempt loop: a panic retries
/// with seeded jittered backoff (the pool shard is rebuilt after it), and
/// a cell that exhausts its attempts becomes a `quarantined` verdict
/// carrying the per-attempt error chain — the campaign always completes.
/// Because results fill canonical slots and runs share no mutable state,
/// the row list is byte-identical whatever the worker count.
pub fn run_campaign(exec: &Executor, settings: &RunSettings, jobs: usize) -> Vec<FaultCampaignRow> {
    let supervisor = SupervisorConfig::default();
    let benchmark = ScenarioId::Heartwall.profile();
    let scenarios = fault_scenarios(settings.seed);
    let cells: Vec<(PdsKind, usize)> = campaign_pds()
        .into_iter()
        .flat_map(|pds| {
            scenarios
                .iter()
                .enumerate()
                .filter(move |(_, sc)| !sc.needs_controller || pds.has_controller())
                .map(move |(si, _)| (pds, si))
        })
        .collect();
    let jobs = effective_jobs(jobs).min(cells.len()).max(1);
    let order: Vec<usize> = (0..cells.len()).collect();
    exec.run_claims(jobs, &order, |i| {
        let (pds, si) = cells[i];
        let sc = &scenarios[si];
        obs::progress(|| format!("  {} under {} ...", sc.name, pds.label()));
        run_cell(exec, settings, pds, sc, &supervisor, &benchmark)
    })
}

/// Runs one campaign cell, a one-member group carrying the cell's fault
/// plan, through the executor's attempt loop.
fn run_cell(
    exec: &Executor,
    settings: &RunSettings,
    pds: PdsKind,
    sc: &FaultScenario,
    supervisor: &SupervisorConfig,
    benchmark: &WorkloadProfile,
) -> FaultCampaignRow {
    let cfg = settings.config(pds);
    let tag = format!("campaign:{}:{}", pds.label(), sc.name);
    let labels = [
        ("fault", sc.name.to_string()),
        ("pds", pds.label().to_string()),
    ];
    let outcome = exec.attempt(&tag, &labels, |_, pool| {
        let run = GroupRun {
            cfg: cfg.clone(),
            pm: PowerManagement::default(),
            budget: CycleBudget::unlimited(),
            plan: sc.plan.clone(),
        };
        Ok(pool
            .run_group(benchmark, &[run], supervisor)
            .reports
            .pop()
            .expect("one run, one report"))
    });
    let errors = match outcome {
        Ok(success) => return cell_row(pds, sc.name, &success.value),
        Err(errors) => errors,
    };
    obs::progress(|| format!("  quarantining campaign cell {tag} after {MAX_ATTEMPTS} attempt(s)"));
    FaultCampaignRow {
        pds: pds.label().to_string(),
        fault: sc.name.to_string(),
        verdict: "quarantined".to_string(),
        min_sm_v: 0.0,
        below_guardband_fraction: 0.0,
        below_guardband_us: 0.0,
        retries: 0,
        sanitized: 0,
        error: Some(errors.join("; ")),
    }
}

/// The table form of an error: the headline alone, with the nested
/// last-error detail dropped. Only the human table uses this; the JSONL
/// artifact always carries the full string.
pub fn short_error(full: &str) -> String {
    full.split("; last error").next().unwrap_or(full).to_string()
}

/// Collapses one supervised run into its campaign row, holding the
/// **full** error string.
fn cell_row(pds: PdsKind, fault: &str, run: &SupervisedReport) -> FaultCampaignRow {
    FaultCampaignRow {
        pds: pds.label().to_string(),
        fault: fault.to_string(),
        verdict: run.verdict.label().to_string(),
        min_sm_v: run.report.min_sm_voltage,
        below_guardband_fraction: run.below_guardband_fraction(),
        below_guardband_us: run.below_guardband_s * 1e6,
        retries: u64::from(run.recovery.retries),
        sanitized: u64::from(run.recovery.sanitized_controls),
        error: run.error.as_ref().map(std::string::ToString::to_string),
    }
}

/// The human table row of a campaign row: its error reduced to the
/// headline ([`short_error`]); the JSONL `fault_row` event keeps it whole.
pub fn table_row(row: &FaultCampaignRow) -> Vec<String> {
    vec![
        row.pds.clone(),
        row.fault.clone(),
        row.verdict.clone(),
        volts(row.min_sm_v),
        pct(row.below_guardband_fraction),
        format!("{:.1}", row.below_guardband_us),
        row.retries.to_string(),
        row.sanitized.to_string(),
        row.error
            .as_ref()
            .map_or_else(|| "-".to_string(), |e| short_error(e)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_telemetry::Event;

    fn cell(error: Option<&str>) -> FaultCampaignRow {
        FaultCampaignRow {
            pds: "VS cross-layer".to_string(),
            fault: "short to rail (1 GW)".to_string(),
            verdict: "aborted".to_string(),
            min_sm_v: 0.123,
            below_guardband_fraction: 0.4,
            below_guardband_us: 1.5,
            retries: 3,
            sanitized: 0,
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn fourteen_scenarios_with_unique_names() {
        let scs = fault_scenarios(42);
        assert_eq!(scs.len(), 14);
        let mut names: Vec<_> = scs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn table_truncates_but_jsonl_keeps_the_full_error() {
        let full = "recovery exhausted after 3 retries at cycle 1042; \
                    last error: divergence at t=1.489e-06s (dt=2.3e-11s)";
        let c = cell(Some(full));

        // Human table: headline only.
        let row = table_row(&c);
        assert_eq!(row[8], "recovery exhausted after 3 retries at cycle 1042");

        // JSONL event: the complete string, including the nested detail.
        let json = Event::FaultRow(c).to_json().to_string_compact();
        assert!(json.contains("last error: divergence at t=1.489e-06s"), "{json}");
        assert!(json.contains("recovery exhausted after 3 retries"), "{json}");
    }

    #[test]
    fn errorless_cell_renders_a_dash() {
        let row = table_row(&cell(None));
        assert_eq!(row[8], "-");
        let json = Event::FaultRow(cell(None)).to_json().to_string_compact();
        assert!(json.contains("\"error\":null"), "{json}");
    }

    #[test]
    fn short_error_without_marker_is_identity() {
        assert_eq!(short_error("plain message"), "plain message");
        assert_eq!(short_error("head; last error: tail"), "head");
    }
}
