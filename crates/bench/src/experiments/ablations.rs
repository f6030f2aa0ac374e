//! Ablation and validation studies.

use super::Recorder;

/// Ablation: which Table-II voltage detector closes the loop best?
pub(super) fn detector(r: &mut Recorder) {
    use vs_control::DetectorKind;
    use vs_core::{run_worst_case, WorstCaseConfig};
    let detectors = [
        ("ODDD", "oddd", DetectorKind::Oddd),
        ("ADC (8-bit)", "adc8", DetectorKind::Adc { bits: 8 }),
        ("CPM", "cpm", DetectorKind::Cpm),
    ];
    let mut rows = Vec::new();
    for (name, slug, kind) in detectors {
        let latency = 58 + kind.latency_cycles();
        let wc = run_worst_case(&WorstCaseConfig {
            detector: kind,
            latency_cycles: latency,
            ..WorstCaseConfig::default()
        });
        r.gauge_labeled("worst_v", &[("det", slug)], wc.worst_voltage);
        r.gauge_labeled("final_v", &[("det", slug)], wc.final_voltage);
        r.gauge_labeled("loop_latency_cycles", &[("det", slug)], f64::from(latency));
        rows.push(vec![
            name.to_string(),
            format!("{}", latency),
            format!("{:.1}", kind.resolution_v(2.0) * 1e3),
            format!("{:.3}", wc.worst_voltage),
            format!("{:.3}", wc.final_voltage),
        ]);
    }
    r.table(
        "Ablation: detector choice vs worst-case reliability (0.2x CR-IVR)",
        &["detector", "loop latency (cyc)", "resolution (mV)", "worst V", "final V"],
        &rows,
    );
    r.line("\nexpected: the fast ODDD/ADC keep the loop on the good side of the");
    r.line("Fig. 10 latency cliff; the slow CPM gives the imbalance ~50 extra");
    r.line("cycles to discharge the rails before the first command lands.");
}

fn droop_at_far_column(n_sub_ivrs: usize) -> f64 {
    use vs_circuit::{Integration, Transient};
    use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
    let params = PdnParams::default();
    let am = AreaModel::default();
    let crivr = CrIvrConfig {
        n_sub_ivrs,
        ..CrIvrConfig::sized_by_gpu_area(1.0, &am)
    };
    let pdn = StackedPdn::build(&params, Some((&crivr, &am)));
    let (v0, g2) = pdn.balanced_initial_state();
    let mut sim = Transient::with_initial_state(
        &pdn.netlist,
        1.0 / 700e6,
        Integration::Trapezoidal,
        &v0,
        &g2,
    )
    .expect("valid netlist");
    // Balanced 8 A everywhere, except SM(0, 3) draws 4 A extra: a sustained
    // single-SM imbalance at the column farthest from a lumped regulator.
    for layer in 0..4 {
        for col in 0..4 {
            let amps = if layer == 0 && col == 3 { 12.0 } else { 8.0 };
            sim.set_control(pdn.sm_load[layer][col], amps);
        }
    }
    for _ in 0..60_000 {
        sim.step().expect("transient step");
    }
    pdn.sm_voltage(&sim, 0, 3)
}

/// Ablation: distributed vs lumped CR-IVR.
pub(super) fn crivr(r: &mut Recorder) {
    let distributed = droop_at_far_column(4);
    let lumped = droop_at_far_column(1);
    let rows = vec![
        vec!["distributed (4 sub-IVRs)".to_string(), format!("{distributed:.3}")],
        vec!["lumped (1 ladder, column 0)".to_string(), format!("{lumped:.3}")],
    ];
    r.table(
        "Ablation: CR-IVR distribution (1x area, +4 A on SM(0,3))",
        &["topology", "aggressor SM voltage (V)"],
        &rows,
    );
    r.line(&format!(
        "\ndistribution advantage: {:.1} mV less droop at the far column",
        1e3 * (distributed - lumped)
    ));
    r.line("(the lumped ladder serves remote imbalance through the lateral grid's");
    r.line("resistance, as prior IVR work found — the reason Fig. 2 distributes).");
    r.gauge_labeled("aggressor_v", &[("topo", "distributed")], distributed);
    r.gauge_labeled("aggressor_v", &[("topo", "lumped")], lumped);
    r.gauge("distribution_advantage_mv", 1e3 * (distributed - lumped));
}

/// Ablation: stack depth.
pub(super) fn stack(r: &mut Recorder) {
    use vs_control::StackModel;
    use vs_core::{PdsKind, PdsRig};
    use vs_pds::PdnParams;
    let mut rows = Vec::new();
    for n_layers in [2usize, 4, 8] {
        let params = PdnParams {
            n_layers,
            vdd_stack: 1.025 * n_layers as f64,
            ..PdnParams::default()
        };
        // Balanced run through the rig: uniform 8 W per SM.
        let mut rig = PdsRig::with_params(
            PdsKind::VsCrossLayer { area_mult: 0.2 },
            &params,
            1.0 / 700e6,
            0.08,
        );
        let p = vec![8.0; rig.n_sms()];
        let z = vec![0.0; rig.n_sms()];
        for _ in 0..20_000 {
            rig.step(&p, &z, &z).expect("ablation step");
        }
        let ledger = rig.ledger();
        let v_spread = {
            let v = rig.sm_voltages();
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        // Control budget: critical proportional gain at the 60-cycle loop.
        let model = StackModel::new(n_layers, params.c_layer * params.n_columns as f64, params.vdd_stack);
        let k_max = model.max_stable_gain(60.0 / 700e6);
        let layers_label = format!("{n_layers}");
        r.gauge_labeled("pde", &[("layers", &layers_label)], ledger.pde());
        r.gauge_labeled("v_spread_mv", &[("layers", &layers_label)], 1e3 * v_spread);
        r.gauge_labeled("k_max_w_per_v", &[("layers", &layers_label)], k_max);
        rows.push(vec![
            format!("{n_layers}"),
            format!("{:.2} V", params.vdd_stack),
            format!("{:.1}%", 100.0 * ledger.pde()),
            format!("{:.1} mV", 1e3 * v_spread),
            format!("{:.1} W/V", k_max),
        ]);
    }
    r.table(
        "Ablation: stack depth (balanced load, 0.2x CR-IVR)",
        &["layers", "board V", "PDE", "SM voltage spread", "max stable gain"],
        &rows,
    );
    r.line("\nexpected: PDE rises with depth (PDN current falls as 1/N) while the");
    r.line("stability budget for the smoothing loop tightens with more stacked nodes.");
}

fn tank_metrics(method: vs_circuit::Integration, steps_per_period: usize) -> (f64, f64) {
    use vs_circuit::{Netlist, Transient};
    let mut net = Netlist::new();
    let top = net.node("top");
    net.capacitor(top, Netlist::GROUND, 1e-9);
    net.inductor(top, Netlist::GROUND, 1e-6);
    net.resistor(top, Netlist::GROUND, 1e9);
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
    let period = 1.0 / f0;
    let dt = period / steps_per_period as f64;
    let mut sim =
        Transient::with_initial_state(&net, dt, method, &[0.0, 1.0], &[0.0]).expect("valid");
    let mut crossings = Vec::new();
    let mut peak_after: f64 = 0.0;
    let mut prev = sim.voltage(top);
    let total = steps_per_period * 12;
    for i in 0..total {
        sim.step().expect("step");
        let v = sim.voltage(top);
        if prev > 0.0 && v <= 0.0 {
            crossings.push(sim.time());
        }
        if i > total - steps_per_period {
            peak_after = peak_after.max(v.abs());
        }
        prev = v;
    }
    let measured = if crossings.len() >= 2 {
        (crossings[crossings.len() - 1] - crossings[0]) / (crossings.len() - 1) as f64
    } else {
        f64::NAN
    };
    ((measured - period).abs() / period, peak_after)
}

/// Ablation: integration method of the circuit solver.
pub(super) fn integration(r: &mut Recorder) {
    use vs_circuit::Integration;
    let mut rows = Vec::new();
    for steps in [20usize, 50, 100, 400] {
        for (name, slug, m) in [
            ("trapezoidal", "trap", Integration::Trapezoidal),
            ("backward Euler", "be", Integration::BackwardEuler),
        ] {
            let (period_err, amplitude) = tank_metrics(m, steps);
            let steps_label = format!("{steps}");
            r.gauge_labeled(
                "period_err",
                &[("method", slug), ("steps", &steps_label)],
                period_err,
            );
            r.gauge_labeled(
                "amplitude",
                &[("method", slug), ("steps", &steps_label)],
                amplitude,
            );
            rows.push(vec![
                format!("{steps}"),
                name.to_string(),
                format!("{:.3}%", 100.0 * period_err),
                format!("{:.3}", amplitude),
            ]);
        }
    }
    r.table(
        "Ablation: LC-tank integration accuracy (amplitude after 11 periods; ideal = 1.000)",
        &["steps/period", "method", "period error", "amplitude"],
        &rows,
    );
    r.line("\ntrapezoidal preserves oscillation energy (SPICE's default, ours too);");
    r.line("backward Euler's numerical damping would fake supply-noise decay.");
}

/// Measured layer-voltage swing (V per ampere of disturbance) at `freq_hz`
/// with sampled proportional feedback of gain `k` every `t_cycles` cycles.
fn measured_gain(freq_hz: f64, k: f64, t_cycles: u64) -> f64 {
    use vs_circuit::{Integration, Netlist, Transient, Waveform};
    use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
    let params = PdnParams::default();
    let am = AreaModel::default();
    let crivr = CrIvrConfig::sized_by_gpu_area(0.2, &am);
    let mut net_owner: Option<Netlist> = None;
    let pdn = StackedPdn::build(&params, Some((&crivr, &am)));
    let mut netlist = pdn.netlist.clone();
    // Disturbance: 1 A sinusoid across layer 1 of column 0.
    netlist.current_source(
        pdn.sm_top[1][0],
        pdn.sm_bottom[1][0],
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            freq_hz,
            phase_rad: 0.0,
        },
    );
    net_owner.replace(netlist);
    let netlist = net_owner.as_ref().expect("set above");
    let (mut v0, g2) = pdn.balanced_initial_state();
    v0.resize(netlist.n_nodes(), 0.0);
    let mut sim =
        Transient::with_initial_state(netlist, 1.0 / 700e6, Integration::Trapezoidal, &v0, &g2)
            .expect("valid netlist");
    let v_nom = params.vdd_stack / params.n_layers as f64;
    let mut held = [[8.0f64; 4]; 4];
    let cycles = 60_000u64;
    let mut v_min = f64::INFINITY;
    let mut v_max = f64::NEG_INFINITY;
    for cycle in 0..cycles {
        if cycle % t_cycles == 0 {
            for (layer, row) in held.iter_mut().enumerate() {
                for (col, h) in row.iter_mut().enumerate() {
                    let v = pdn.sm_voltage(&sim, layer, col);
                    *h = (8.0 + k * (v - v_nom)).clamp(0.0, 40.0);
                }
            }
        }
        for (layer, row) in held.iter().enumerate() {
            for (col, h) in row.iter().enumerate() {
                sim.set_control(pdn.sm_load[layer][col], h / v_nom);
            }
        }
        sim.step().expect("step");
        if cycle > cycles / 2 {
            let v = pdn.sm_voltage(&sim, 1, 0);
            v_min = v_min.min(v);
            v_max = v_max.max(v);
        }
    }
    (v_max - v_min) / 2.0
}

/// Validation: the discrete closed-loop disturbance gain predicted by the
/// control model versus the amplification measured on the circuit netlist.
pub(super) fn bode(r: &mut Recorder) {
    use vs_control::StackModel;
    use vs_pds::PdnParams;
    let params = PdnParams::default();
    let t_cycles = 60u64;
    let t = t_cycles as f64 / 700e6;
    let model = StackModel::new(
        params.n_layers,
        params.c_layer * params.n_columns as f64,
        params.vdd_stack,
    );
    let k = 0.4 * model.max_stable_gain(t);
    let closed = model.sampled_closed_loop(k, t);

    let freqs = [0.05e6, 0.2e6, 0.8e6, 2.0e6, 5.0e6];
    let mut rows = Vec::new();
    for f in freqs {
        crate::obs::progress(|| format!("  measuring {f:.2e} Hz ..."));
        let measured = measured_gain(f, k, t_cycles);
        // Analytic: per-step injection of a 1 A disturbance into one node is
        // (I * T / C_node); the state response is that times the z-domain
        // gain.
        let injection = t / (params.c_layer * params.n_columns as f64);
        let analytic = closed.disturbance_gain(f) * injection;
        let f_label = format!("{:.2}", f / 1e6);
        r.gauge_labeled("gain_analytic_mv", &[("f_mhz", &f_label)], 1e3 * analytic);
        r.gauge_labeled("gain_measured_mv", &[("f_mhz", &f_label)], 1e3 * measured);
        r.gauge_labeled("gain_ratio", &[("f_mhz", &f_label)], measured / analytic);
        rows.push(vec![
            f_label,
            format!("{:.1}", 1e3 * analytic),
            format!("{:.1}", 1e3 * measured),
            format!("{:.2}", measured / analytic),
        ]);
    }
    r.table(
        "Validation: closed-loop disturbance gain, model vs circuit (mV per A)",
        &["freq (MHz)", "analytic", "measured", "ratio"],
        &rows,
    );
    r.line("\nthe eq.-(8) model excludes the CR-IVR and lateral grid, so it is a");
    r.line("conservative *upper bound* on the circuit's low-frequency gain");
    r.line("(ratio < 1) and converges toward the measurement as frequency");
    r.line("approaches the loop's Nyquist band — exactly the property the");
    r.line("paper's guardband proof needs from the analytic model.");
}
