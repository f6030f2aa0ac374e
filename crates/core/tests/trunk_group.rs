//! Groups on one GPU trunk, bit for bit.
//!
//! `CosimPool::run_group` ticks one GPU for several configurations of one
//! workload and lets each leave the trunk when its SM controls diverge.
//! Every member's `SupervisedReport` must equal, bit for bit, the report of
//! the same configuration run alone through `Cosim::run_supervised`: over
//! all twelve scenarios at the tiny profile, in a GTO group that mixes
//! every way a run reaches its SM controls (none, the controller at two
//! thresholds and two actuator mixes, DFS through the hypervisor) and in a
//! power-gating group on the GATES scheduler. A member whose watchdog trips
//! inside the shared prefix fails alone, at its cycle, while its siblings
//! stay bit-identical. Members that inject different faults share a trunk
//! too: each plan acts on its own member only.

use vs_circuit::{StepReport, TraceSummary};
use vs_control::{ActuatorWeights, DetectorFault};
use vs_core::{
    Cosim, CosimConfig, CosimError, CosimPool, CrIvrFault, CycleBudget, EnergyLedger, FaultKind,
    FaultPlan, FaultWindow, GroupRun, PdsKind, PowerManagement, Ride, ScenarioId, SupervisedReport,
    SupervisorConfig,
};
use vs_hypervisor::{DfsConfig, PgConfig};

/// The tiny profile: scale 0.02, 60 000-cycle cap, seed 42.
fn tiny(pds: PdsKind) -> CosimConfig {
    CosimConfig {
        pds,
        workload_scale: 0.02,
        max_cycles: 60_000,
        seed: 42,
        ..CosimConfig::default()
    }
}

fn cross_layer(v_threshold: f64, weights: ActuatorWeights) -> CosimConfig {
    CosimConfig {
        v_threshold,
        weights,
        ..tiny(PdsKind::VsCrossLayer { area_mult: 0.2 })
    }
}

fn run(cfg: CosimConfig, pm: PowerManagement) -> GroupRun {
    GroupRun {
        cfg,
        pm,
        budget: CycleBudget::unlimited(),
        plan: FaultPlan::none(),
    }
}

/// Conventional, circuit-only, cross-layer at two thresholds, DCC-only and
/// FII-only weights, and DFS at a 70% goal through the hypervisor.
fn gto_group() -> Vec<GroupRun> {
    let none = PowerManagement::default;
    vec![
        run(tiny(PdsKind::ConventionalVrm), none()),
        run(tiny(PdsKind::VsCircuitOnly { area_mult: 1.72 }), none()),
        run(cross_layer(0.97, ActuatorWeights::DIWS_ONLY), none()),
        run(cross_layer(1.00, ActuatorWeights::DIWS_ONLY), none()),
        run(cross_layer(0.97, ActuatorWeights::DCC_ONLY), none()),
        run(cross_layer(0.97, ActuatorWeights::FII_ONLY), none()),
        run(
            cross_layer(0.9, ActuatorWeights::DIWS_ONLY),
            PowerManagement {
                dfs: Some(DfsConfig::with_goal(0.7)),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
    ]
}

/// Power gating on the GATES scheduler: conventional, and VS through the
/// hypervisor.
fn pg_group() -> Vec<GroupRun> {
    vec![
        run(
            tiny(PdsKind::ConventionalVrm),
            PowerManagement {
                pg: Some(PgConfig::default()),
                ..PowerManagement::default()
            },
        ),
        run(
            cross_layer(0.9, ActuatorWeights::DIWS_ONLY),
            PowerManagement {
                pg: Some(PgConfig::default()),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
    ]
}

/// `run` alone, through `Cosim::run_supervised`.
fn lone(id: ScenarioId, run: &GroupRun) -> SupervisedReport {
    let profile = id.profile();
    Cosim::builder(&run.cfg, &profile)
        .power_management(run.pm.clone())
        .budget(run.budget)
        .build()
        .run_supervised(&SupervisorConfig::default(), &run.plan)
}

fn ledger_bits(l: &EnergyLedger) -> [u64; 11] {
    let EnergyLedger {
        board_input_j,
        sm_load_j,
        vrm_loss_j,
        ivr_loss_j,
        pdn_loss_j,
        crivr_loss_j,
        crivr_overhead_j,
        level_shifter_j,
        controller_j,
        dcc_j,
        fake_j,
    } = *l;
    [
        board_input_j,
        sm_load_j,
        vrm_loss_j,
        ivr_loss_j,
        pdn_loss_j,
        crivr_loss_j,
        crivr_overhead_j,
        level_shifter_j,
        controller_j,
        dcc_j,
        fake_j,
    ]
    .map(f64::to_bits)
}

/// Every field of a supervised report, each f64 by its bit pattern.
fn report_bits(r: &SupervisedReport) -> Vec<String> {
    let SupervisedReport {
        verdict,
        report,
        below_guardband_cycles,
        below_guardband_s,
        recovery,
        error,
        telemetry,
    } = r;
    let StepReport {
        retries,
        sanitized_controls,
        used_backward_euler,
        halvings,
    } = *recovery;
    let summaries: Vec<[u64; 6]> = report
        .sm_voltage_summaries
        .iter()
        .map(|s| {
            let TraceSummary {
                min,
                q1,
                median,
                q3,
                max,
                mean,
            } = *s;
            [min, q1, median, q3, max, mean].map(f64::to_bits)
        })
        .collect();
    vec![
        format!("verdict {verdict:?}"),
        format!("benchmark {} pds {:?}", report.benchmark, report.pds),
        format!(
            "cycles {} completed {} instructions {}",
            report.cycles, report.completed, report.instructions
        ),
        format!("ledger {:?}", ledger_bits(&report.ledger)),
        format!(
            "voltage {:x} {:x} summaries {summaries:?}",
            report.min_sm_voltage.to_bits(),
            report.max_sm_voltage.to_bits()
        ),
        format!(
            "throttle {:x} freq {:x} gating {:x}",
            report.throttle_fraction.to_bits(),
            report.avg_freq_scale.to_bits(),
            report.gating_saved_j.to_bits()
        ),
        format!(
            "imbalance {:?} {:?} {:x}",
            report.imbalance.topology(),
            report.imbalance.bins(),
            report.imbalance.peak_observed().to_bits()
        ),
        format!(
            "guardband {below_guardband_cycles:?} {:x}",
            below_guardband_s.to_bits()
        ),
        format!("recovery {retries} {sanitized_controls} {used_backward_euler} {halvings}"),
        format!("error {error:?} telemetry {}", telemetry.is_some()),
    ]
}

/// The member whose watchdog trips, and where: fastwalsh's conventional
/// power-gating run, long before its VS sibling's hypervisor changes its
/// controls (at cycle 3 448). With the conventional run gone, that sibling
/// is the last rider, so it keeps the trunk instead of parking.
const TRIPPED: (ScenarioId, usize) = (ScenarioId::Fastwalsh, 0);
const TRIP: u64 = 300;

#[test]
fn every_member_matches_its_lone_run_bit_for_bit() {
    let sup = SupervisorConfig::default();
    let mut pool = CosimPool::new();
    let (mut shared, mut parked, mut kept) = (0, 0, 0);
    for id in ScenarioId::ALL {
        let profile = id.profile();
        let mut pg = pg_group();
        if id == TRIPPED.0 {
            pg[TRIPPED.1].budget = CycleBudget::tripping_at(TRIP);
        }
        for (runs, tripped) in [
            (gto_group(), None),
            (pg, (id == TRIPPED.0).then_some(TRIPPED.1)),
        ] {
            let outcome = pool.run_group(&profile, &runs, &sup);
            assert_eq!(outcome.reports.len(), runs.len());
            let mut reticks = 0;
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(
                    report_bits(&outcome.reports[i]),
                    report_bits(&lone(id, run)),
                    "{id}: member {i} ({:?}, {:?}) left its lone run; ride {:?}",
                    run.cfg.pds,
                    run.pm,
                    outcome.rides[i]
                );
                match outcome.rides[i] {
                    Ride::Shared => shared += 1,
                    Ride::Parked { at } => {
                        parked += 1;
                        reticks += at;
                    }
                    Ride::Kept { .. } => kept += 1,
                }
            }
            let parked_here = outcome
                .rides
                .iter()
                .filter(|r| matches!(r, Ride::Parked { .. }))
                .count() as u64;
            assert_eq!(outcome.stats.parked, parked_here, "{id}");
            assert_eq!(outcome.stats.prefix_reticks, reticks, "{id}");
            // The trunk's ticks plus the re-ticked prefixes and lone tails
            // never exceed what the members tick alone.
            let alone: u64 = outcome.reports.iter().map(|r| r.report.cycles).sum();
            assert!(
                outcome.stats.gpu_ticks <= alone,
                "{id}: {:?}",
                outcome.stats
            );

            let Some(t) = tripped else { continue };
            let report = &outcome.reports[t];
            assert_eq!(
                report.error,
                Some(CosimError::DeadlineExceeded { cycle: TRIP })
            );
            assert_eq!(report.report.cycles, TRIP);
            assert_eq!(
                outcome.rides[t],
                Ride::Shared,
                "it stopped while on the trunk"
            );
            for (i, ride) in outcome.rides.iter().enumerate() {
                if let Ride::Parked { at } | Ride::Kept { at } = *ride {
                    assert!(at > TRIP, "{id}: member {i} left at {at}, before the trip");
                }
            }
        }
    }
    println!("rides over 12 scenarios: {shared} shared, {parked} parked, {kept} kept");
    assert!(shared >= 1, "some member never forks");
    assert!(parked >= 1, "some member parks and re-ticks its prefix");
    assert!(kept >= 1, "some member keeps the trunk");
}

/// One heartwall group whose members share a trunk key but inject
/// different faults: none and a detector stuck at 1.0 V on SM 0, both
/// cross-layer, and CR-IVR column 0 offline from cycle 1 000 on the
/// circuit-only stack. Every member matches its lone run with its own plan,
/// and the offline column moves its member away from the same run without
/// it. (At this profile the stack never droops to the controller's
/// threshold, so a detector reading a steady 1.0 V changes nothing.)
#[test]
fn members_with_different_fault_plans_match_their_lone_runs() {
    let id = ScenarioId::Heartwall;
    let none = PowerManagement::default;
    let cross = tiny(PdsKind::VsCrossLayer { area_mult: 0.2 });
    let circuit = tiny(PdsKind::VsCircuitOnly { area_mult: 1.72 });
    let with_plan = |cfg: &CosimConfig, plan: FaultPlan| GroupRun {
        plan,
        ..run(cfg.clone(), none())
    };
    let stuck = FaultPlan::new(42).with(
        FaultKind::Detector {
            sm: 0,
            fault: DetectorFault::StuckAt { volts: 1.0 },
        },
        FaultWindow::ALWAYS,
    );
    let offline = FaultPlan::new(42).with(
        FaultKind::CrIvr {
            column: 0,
            fault: CrIvrFault::Offline,
        },
        FaultWindow::from(1_000),
    );
    let runs = [
        with_plan(&cross, FaultPlan::none()),
        with_plan(&cross, stuck),
        with_plan(&circuit, offline),
    ];
    let outcome = CosimPool::new().run_group(&id.profile(), &runs, &SupervisorConfig::default());
    let bits: Vec<Vec<String>> = outcome.reports.iter().map(report_bits).collect();
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(
            bits[i],
            report_bits(&lone(id, run)),
            "member {i} ({:?}, {:?}) left its lone run; ride {:?}",
            run.cfg.pds,
            run.plan,
            outcome.rides[i]
        );
    }
    assert_ne!(
        bits[2],
        report_bits(&lone(id, &run(circuit, none()))),
        "the offline column acts on its own member"
    );
}
