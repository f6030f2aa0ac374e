//! Tables I–III of the evaluation.

use vs_gpu::GpuConfig;
use vs_pds::{AreaModel, PdnParams};

use super::Recorder;
use crate::{pct, pds_configs, Executor, RunSettings};

/// The slug a PDS configuration's gauges are labeled with.
pub(super) fn pds_slug(pds: vs_core::PdsKind) -> &'static str {
    match pds {
        vs_core::PdsKind::ConventionalVrm => "vrm",
        vs_core::PdsKind::SingleLayerIvr => "ivr",
        vs_core::PdsKind::VsCircuitOnly { .. } => "vs-circuit",
        vs_core::PdsKind::VsCrossLayer { .. } => "vs-cross",
    }
}

/// Table I: voltage-stacked GPU system configuration.
pub(super) fn table1(r: &mut Recorder) {
    let g = GpuConfig::default();
    let p = PdnParams::default();
    let rows = vec![
        vec!["PCB voltage".into(), format!("{} V", p.vdd_stack)],
        vec!["SM voltage".into(), format!("{} V", p.v_sm)],
        vec!["Number of SMs".into(), format!("{}", g.n_sms)],
        vec!["SM clock freq.".into(), format!("{} MHz", g.clock_hz / 1e6)],
        vec!["Threads per SM".into(), format!("{}", g.threads_per_sm)],
        vec!["Threads per warp".into(), format!("{}", g.threads_per_warp)],
        vec!["Registers per SM".into(), format!("{} KB", g.register_file_bytes / 1024)],
        vec!["Mem controller".into(), "FR-FCFS".into()],
        vec!["Shared memory".into(), format!("{} KB", g.shared_mem_bytes / 1024)],
        vec!["Mem bandwidth".into(), format!("{:.1} GB/s", g.mem_bandwidth_bps / 1e9)],
        vec!["Memory channels".into(), format!("{}", g.mem_channels)],
        vec!["Warp scheduler".into(), "GTO".into()],
        vec!["Stack arrangement".into(), format!("{} layers x {} SMs", p.n_layers, p.n_columns)],
        vec!["Process technology".into(), "40 nm (energy calibration)".into()],
    ];
    r.table("Table I: system configuration", &["parameter", "value"], &rows);
    r.gauge("vdd_stack_v", p.vdd_stack);
    r.gauge("v_sm", p.v_sm);
    r.gauge("n_sms", g.n_sms as f64);
    r.gauge("n_layers", p.n_layers as f64);
    r.gauge("clock_mhz", g.clock_hz / 1e6);
}

/// Table II: voltage detector options.
pub(super) fn table2(r: &mut Recorder) {
    use vs_control::DetectorKind;
    let detectors = [
        ("ODDD", "oddd", DetectorKind::Oddd, "droop indicator"),
        ("CPM", "cpm", DetectorKind::Cpm, "timing variation"),
        ("ADC (8b)", "adc8", DetectorKind::Adc { bits: 8 }, "N-bit digital"),
    ];
    let rows: Vec<Vec<String>> = detectors
        .iter()
        .map(|(name, _, kind, output)| {
            vec![
                name.to_string(),
                format!("{}", kind.latency_cycles()),
                format!("{:.0}", kind.power_w() * 1e3),
                format!("{:.1}", kind.resolution_v(2.0) * 1e3),
                output.to_string(),
            ]
        })
        .collect();
    r.table(
        "Table II: voltage detector options",
        &["sensor", "latency (cyc)", "power (mW)", "resolution (mV)", "output"],
        &rows,
    );
    for (_, slug, kind, _) in detectors {
        r.gauge_labeled("detector_latency_cycles", &[("det", slug)], f64::from(kind.latency_cycles()));
        r.gauge_labeled("detector_power_mw", &[("det", slug)], kind.power_w() * 1e3);
        r.gauge_labeled("detector_resolution_mv", &[("det", slug)], kind.resolution_v(2.0) * 1e3);
    }
}

/// Table III: PDE and die-area overhead of the four PDS configurations.
pub(super) fn table3(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    let am = AreaModel::default();
    let mut rows = Vec::new();
    let mut conventional_loss = 0.0;
    let mut cross_layer = (0.0, 0.0);
    let suites: Vec<_> = pds_configs()
        .into_iter()
        .map(|pds| (settings.config(pds), vs_core::PowerManagement::default()))
        .collect();
    let all = exec.run_suites(&suites);
    for (pds, runs) in pds_configs().into_iter().zip(&all) {
        let n = runs.len() as f64;
        let pde: f64 = runs.iter().map(vs_core::CosimReport::pde).sum::<f64>() / n;
        let area = match pds {
            vs_core::PdsKind::ConventionalVrm => "N/A".to_string(),
            vs_core::PdsKind::SingleLayerIvr => format!(
                "{:.1} mm2 ({:.2}x GPU die)",
                AreaModel::SINGLE_LAYER_IVR_MM2,
                am.as_gpu_multiple(AreaModel::SINGLE_LAYER_IVR_MM2)
            ),
            vs_core::PdsKind::VsCircuitOnly { .. } => format!(
                "{:.0} mm2 ({:.2}x GPU die)",
                AreaModel::CIRCUIT_ONLY_MM2,
                am.as_gpu_multiple(AreaModel::CIRCUIT_ONLY_MM2)
            ),
            vs_core::PdsKind::VsCrossLayer { .. } => format!(
                "{:.1} mm2 ({:.2}x GPU die)",
                AreaModel::CROSS_LAYER_MM2,
                am.as_gpu_multiple(AreaModel::CROSS_LAYER_MM2)
            ),
        };
        match pds {
            vs_core::PdsKind::ConventionalVrm => conventional_loss = 1.0 - pde,
            vs_core::PdsKind::VsCrossLayer { .. } => cross_layer = (pde, 1.0 - pde),
            _ => {}
        }
        r.gauge_labeled("pde", &[("pds", pds_slug(pds))], pde);
        rows.push(vec![pds.label().to_string(), pct(pde), area]);
    }
    r.table(
        "Table III: comparison of power delivery subsystems",
        &["PDS configuration", "PDE", "die area overhead"],
        &rows,
    );
    let eliminated = 1.0 - cross_layer.1 / conventional_loss;
    r.line(&format!(
        "\ncross-layer VS eliminates {} of the conventional PDS loss (paper: 61.5%)",
        pct(eliminated)
    ));
    r.line(&format!(
        "PDE improvement over conventional: {} (paper: +12.3%)",
        pct(cross_layer.0 - (1.0 - conventional_loss))
    ));
    let area_saving = 1.0 - AreaModel::CROSS_LAYER_MM2 / AreaModel::CIRCUIT_ONLY_MM2;
    r.line(&format!("area saving vs circuit-only: {} (paper: 88%)", pct(area_saving)));
    r.gauge("loss_eliminated_frac", eliminated);
    r.gauge("pde_improvement", cross_layer.0 - (1.0 - conventional_loss));
    r.gauge("area_saving_frac", area_saving);
    r.gauge_labeled("area_mm2", &[("pds", "ivr")], AreaModel::SINGLE_LAYER_IVR_MM2);
    r.gauge_labeled("area_mm2", &[("pds", "vs-circuit")], AreaModel::CIRCUIT_ONLY_MM2);
    r.gauge_labeled("area_mm2", &[("pds", "vs-cross")], AreaModel::CROSS_LAYER_MM2);
}
