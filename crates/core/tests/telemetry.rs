//! Telemetry is the stage profile, and it never moves a run: an
//! instrumented run reports exactly what the same run reports without
//! telemetry, and its artifact is one `stages` event whose spans cover the
//! loop's stages once per cycle.

use vs_control::DetectorFault;
use vs_core::{
    Cosim, CosimConfig, FaultKind, FaultPlan, FaultWindow, PdsKind, ScenarioId, SupervisedReport,
    SupervisorConfig,
};
use vs_telemetry::{Event, Telemetry};

fn quick_config() -> CosimConfig {
    CosimConfig {
        pds: PdsKind::VsCrossLayer { area_mult: 0.2 },
        workload_scale: 0.02,
        max_cycles: 120_000,
        ..CosimConfig::default()
    }
}

/// fastwalsh under fig14's cross-layer configuration (the noise-scaled
/// 0.97 V threshold, at which fig14's golden reads 7.8% throttled
/// SM-cycles for it), with the fault campaign's `detector noise 50 mV`
/// cell: 50 mV of noise on SM 0's detector for the whole run.
fn acting_run(telemetry: Telemetry) -> SupervisedReport {
    let cfg = CosimConfig {
        v_threshold: 0.97,
        ..quick_config()
    };
    let plan = FaultPlan::new(cfg.seed).with(
        FaultKind::Detector {
            sm: 0,
            fault: DetectorFault::Noise { sigma_v: 0.05 },
        },
        FaultWindow::ALWAYS,
    );
    let profile = ScenarioId::Fastwalsh.profile();
    Cosim::builder(&cfg, &profile)
        .telemetry(telemetry)
        .build()
        .run_supervised(&SupervisorConfig::default(), &plan)
}

#[test]
fn disabled_telemetry_yields_no_artifact() {
    let profile = ScenarioId::Heartwall.profile();
    let run = Cosim::builder(&quick_config(), &profile)
        .build()
        .run_supervised(&SupervisorConfig::default(), &FaultPlan::none());
    assert!(run.report.completed);
    assert!(run.telemetry.is_none(), "default runs carry no artifact");
}

#[test]
fn telemetry_never_moves_a_run_and_records_only_the_stage_profile() {
    let on = acting_run(Telemetry::enabled());
    let off = acting_run(Telemetry::disabled());
    assert!(on.report.completed, "run must finish ({} cycles)", on.report.cycles);
    assert!(
        on.report.throttle_fraction > 0.0,
        "the controller must act for the run to exercise its stage"
    );

    assert_eq!(
        on.report.to_persist_json().to_string_compact(),
        off.report.to_persist_json().to_string_compact()
    );
    assert_eq!(on.verdict, off.verdict);
    assert_eq!(on.recovery, off.recovery);
    assert_eq!(on.below_guardband_cycles, off.below_guardband_cycles);
    assert_eq!(on.error, off.error);
    assert!(off.telemetry.is_none());

    let artifact = on.telemetry.expect("an enabled run yields an artifact");
    let [Event::Stages(stages)] = artifact.events.as_slice() else {
        panic!("the artifact must be one stages event: {:?}", artifact.events);
    };
    let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        ["gpu_step", "power_model", "circuit_solve", "controller_update", "hypervisor_remap"]
    );
    for s in &stages[..4] {
        assert_eq!(s.count, on.report.cycles, "{} spans one per cycle", s.stage);
    }
}
