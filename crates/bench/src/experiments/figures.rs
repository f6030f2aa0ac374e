//! Figures 3–17 of the evaluation.

use std::sync::Arc;

use vs_core::{run_worst_case, CosimConfig, CosimReport, PdsKind, PowerManagement, WorstCaseConfig};
use vs_hypervisor::{DfsConfig, PgConfig};

use super::{tables::pds_slug, Recorder};
use crate::{benchmark_names, pct, pds_configs, volts, BaselineCache, Executor, RunSettings};

/// Runs the conventional baseline suite and `suites` as one batch on
/// `exec`: the baseline, and each suite's reports in request order.
fn run_with_baseline(
    exec: &Executor,
    settings: &RunSettings,
    suites: &[(CosimConfig, PowerManagement)],
) -> (BaselineCache, Vec<Arc<Vec<CosimReport>>>) {
    let mut all = vec![BaselineCache::suite(settings)];
    all.extend_from_slice(suites);
    let mut runs = exec.run_suites(&all);
    let baseline = BaselineCache::new(&runs.remove(0));
    (baseline, runs)
}

/// Fig. 3: effective impedance of the voltage-stacked GPU, without (a) and
/// with (b) the CR-IVR.
pub(super) fn fig3(r: &mut Recorder) {
    use vs_pds::{impedance_profile, AreaModel, CrIvrConfig, ImpedanceProfile, PdnParams, StackedPdn};
    let params = PdnParams::default();
    let am = AreaModel::default();
    let crivr = CrIvrConfig::sized_by_gpu_area(0.2, &am);
    let without = StackedPdn::build(&params, None);
    let with = StackedPdn::build(&params, Some((&crivr, &am)));

    for (tag, label, pdn) in [
        ("a", "Fig. 3(a): effective impedance WITHOUT CR-IVR", &without),
        ("b", "Fig. 3(b): effective impedance WITH CR-IVR (0.2x GPU area)", &with),
    ] {
        let p = impedance_profile(pdn, 1e5, 500e6, 36).expect("AC analysis");
        let rows: Vec<Vec<String>> = p
            .freqs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                vec![
                    format!("{:.3e}", f),
                    format!("{:.4e}", p.z_global[i]),
                    format!("{:.4e}", p.z_stack[i]),
                    format!("{:.4e}", p.z_residual_same_layer[i]),
                    format!("{:.4e}", p.z_residual_diff_layer[i]),
                ]
            })
            .collect();
        r.table(
            label,
            &["freq (Hz)", "Z_G (ohm)", "Z_ST (ohm)", "Z_R same (ohm)", "Z_R diff (ohm)"],
            &rows,
        );
        let (fg, zg) = ImpedanceProfile::peak(&p.z_global, &p.freqs);
        let (fr, zr) = ImpedanceProfile::peak(&p.z_residual_same_layer, &p.freqs);
        r.line(&format!(
            "peaks: Z_G {:.4e} ohm @ {:.1} MHz | Z_R(same) {:.4e} ohm @ {:.2} MHz",
            zg,
            fg / 1e6,
            zr,
            fr / 1e6
        ));
        r.gauge_labeled("z_peak_ohm", &[("fig", tag), ("curve", "zg")], zg);
        r.gauge_labeled("z_peak_mhz", &[("fig", tag), ("curve", "zg")], fg / 1e6);
        r.gauge_labeled("z_peak_ohm", &[("fig", tag), ("curve", "zr-same")], zr);
        r.gauge_labeled("z_peak_mhz", &[("fig", tag), ("curve", "zr-same")], fr / 1e6);
    }
    r.line("\npaper shape: Z_R dominates at low frequency and peaks toward DC;");
    r.line("Z_G resonates in the tens of MHz; the CR-IVR crushes the low-frequency Z_R peak.");
}

/// Fig. 5: time scales of GPU power-actuation mechanisms and which qualify
/// for the voltage-smoothing loop.
pub(super) fn fig5(r: &mut Recorder) {
    use vs_control::ActuationTimescales;
    let rows = [
        ("DCC (current DAC)", "dcc", ActuationTimescales::DCC_CYCLES),
        ("DIWS (issue width)", "diws", ActuationTimescales::DIWS_CYCLES),
        ("FII (fake instructions)", "fii", ActuationTimescales::FII_CYCLES),
        ("Power gating", "pg", ActuationTimescales::POWER_GATING_CYCLES),
        ("Thread migration", "migration", ActuationTimescales::THREAD_MIGRATION_CYCLES),
        ("DFS (DPLL re-lock)", "dfs", ActuationTimescales::DFS_CYCLES),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, _, cycles)| {
            vec![
                (*name).to_string(),
                format!("{cycles}"),
                format!("{:.2e}", f64::from(*cycles) / 700e6),
                if ActuationTimescales::fast_enough(*cycles) {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]
        })
        .collect();
    r.table(
        "Fig. 5: actuation mechanism time scales (700 MHz clock)",
        &["mechanism", "cycles", "seconds", "fast enough for smoothing"],
        &table,
    );
    for (_, slug, cycles) in rows {
        r.gauge_labeled("actuation_cycles", &[("mech", slug)], f64::from(cycles));
        r.gauge_labeled(
            "fast_enough",
            &[("mech", slug)],
            if ActuationTimescales::fast_enough(cycles) { 1.0 } else { 0.0 },
        );
    }
    r.line("\npaper: DIWS/FII/DCC qualify (<= hundreds of cycles); PG, migration and DFS do not.");
}

/// Fig. 8: power delivery efficiency and loss breakdown across benchmarks
/// and PDS configurations.
pub(super) fn fig8(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    let suites: Vec<_> = pds_configs()
        .into_iter()
        .map(|pds| (settings.config(pds), PowerManagement::default()))
        .collect();
    let all = exec.run_suites(&suites);
    let mut summary_rows = Vec::new();
    for (pds, runs) in pds_configs().into_iter().zip(&all) {
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|run| {
                let l = &run.ledger;
                let input = l.board_input_j.max(1e-30);
                vec![
                    run.benchmark.clone(),
                    pct(run.pde()),
                    pct(l.vrm_loss_j / input),
                    pct(l.ivr_loss_j / input),
                    pct(l.pdn_loss_j / input),
                    pct(l.crivr_loss_j / input),
                    pct((l.level_shifter_j + l.controller_j + l.crivr_overhead_j) / input),
                    pct((l.dcc_j + l.fake_j) / input),
                ]
            })
            .collect();
        r.table(
            &format!("Fig. 8: {} (per-benchmark PDE and loss breakdown)", pds.label()),
            &["benchmark", "PDE", "VRM", "IVR", "PDN", "CR-IVR", "overheads", "DCC+FII"],
            &rows,
        );
        for run in runs.iter() {
            r.gauge_labeled(
                "pde",
                &[("pds", pds_slug(pds)), ("bench", &run.benchmark)],
                run.pde(),
            );
        }
        let avg: f64 = runs.iter().map(vs_core::CosimReport::pde).sum::<f64>() / runs.len() as f64;
        r.gauge_labeled("pde_avg", &[("pds", pds_slug(pds))], avg);
        summary_rows.push(vec![pds.label().to_string(), pct(avg)]);
    }
    r.table(
        "Fig. 8 summary: average PDE per PDS configuration",
        &["configuration", "avg PDE"],
        &summary_rows,
    );
    r.line("\npaper: ~80% (VRM), ~85% (IVR), ~93.0% (VS circuit-only), ~92.3% (VS cross-layer).");
}

/// Fig. 9: transient layer voltage under the worst-case imbalance event
/// (one layer's SMs gated at 3 us).
pub(super) fn fig9(r: &mut Recorder) {
    let configs = [
        ("circuit-only 2.0x", "circ2.0", 2.0, false),
        ("circuit-only 1.0x", "circ1.0", 1.0, false),
        ("circuit-only 0.2x", "circ0.2", 0.2, false),
        ("cross-layer 0.2x", "cross0.2", 0.2, true),
    ];
    let results: Vec<_> = configs
        .iter()
        .map(|(label, slug, area, cross)| {
            crate::obs::progress_step(&format!("  running worst case: {label} ..."));
            let wc = run_worst_case(&WorstCaseConfig {
                area_mult: *area,
                cross_layer: *cross,
                ..WorstCaseConfig::default()
            });
            (*label, *slug, wc)
        })
        .collect();

    // Sampled waveform table (every ~70 ns).
    let n = results[0].2.trace.len();
    let stride = (n / 64).max(1);
    let mut rows = Vec::new();
    for i in (0..n).step_by(stride) {
        let t = results[0].2.trace.times()[i];
        let mut row = vec![format!("{:.2}", t * 1e6)];
        for (_, _, wc) in &results {
            row.push(format!("{:.3}", wc.trace.values()[i]));
        }
        rows.push(row);
    }
    r.table(
        "Fig. 9: min loaded-SM voltage vs time (V); layer gated at 3.00 us",
        &["t (us)", "circ 2.0x", "circ 1.0x", "circ 0.2x", "cross 0.2x"],
        &rows,
    );

    let summary: Vec<Vec<String>> = results
        .iter()
        .map(|(label, _, wc)| {
            vec![
                (*label).to_string(),
                volts(wc.worst_voltage),
                volts(wc.final_voltage),
            ]
        })
        .collect();
    r.table(
        "Fig. 9 summary",
        &["configuration", "worst V after event", "final V"],
        &summary,
    );
    for (_, slug, wc) in &results {
        r.gauge_labeled("worst_v", &[("cfg", slug)], wc.worst_voltage);
        r.gauge_labeled("final_v", &[("cfg", slug)], wc.final_voltage);
    }
    r.line("\npaper shape: circuit-only needs ~2x GPU area to stay above 0.8 V;");
    r.line("the cross-layer design does it with 0.2x (an ~88% area reduction).");
}

/// Fig. 10: worst-case droop sensitivity to CR-IVR area (a) and control
/// latency (b) for the cross-layer design.
pub(super) fn fig10(r: &mut Recorder) {
    use std::collections::HashMap;
    use vs_core::worst_voltage_for;
    // The (a) and (b) grids share 16 (area, latency) pairs; each distinct
    // pair runs once.
    let mut runs: HashMap<(u64, u32), f64> = HashMap::new();
    let mut worst_voltage = |area: f64, lat: u32| {
        *runs
            .entry((area.to_bits(), lat))
            .or_insert_with(|| worst_voltage_for(area, lat, true))
    };
    // (a) worst voltage vs area for several latencies.
    let areas = [0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0];
    let latencies = [60u32, 80, 120, 140];
    let mut rows = Vec::new();
    for area in areas {
        crate::obs::progress_step(&format!("  area {area} ..."));
        let mut row = vec![format!("{area:.1}")];
        for lat in latencies {
            let v = worst_voltage(area, lat);
            r.gauge_labeled(
                "worst_v",
                &[("area", &format!("{area:.1}")), ("lat", &format!("{lat}"))],
                v,
            );
            row.push(format!("{v:.3}"));
        }
        rows.push(row);
    }
    r.table(
        "Fig. 10(a): worst voltage (V) vs CR-IVR area (x GPU die)",
        &["area", "lat 60", "lat 80", "lat 120", "lat 140"],
        &rows,
    );

    // (b) worst voltage vs latency for several areas.
    let lats = [20u32, 40, 60, 80, 100, 120, 140, 160];
    let areas_b = [2.0, 0.8, 0.4, 0.2];
    let mut rows_b = Vec::new();
    for lat in lats {
        crate::obs::progress_step(&format!("  latency {lat} ..."));
        let mut row = vec![format!("{lat}")];
        for area in areas_b {
            let v = worst_voltage(area, lat);
            r.gauge_labeled(
                "worst_v",
                &[("area", &format!("{area:.1}")), ("lat", &format!("{lat}"))],
                v,
            );
            row.push(format!("{v:.3}"));
        }
        rows_b.push(row);
    }
    r.table(
        "Fig. 10(b): worst voltage (V) vs control latency (cycles)",
        &["latency", "2.0x", "0.8x", "0.4x", "0.2x"],
        &rows_b,
    );
    r.line("\npaper shape: droop becomes latency-sensitive below ~0.8x area and");
    r.line("area-sensitive above ~80-cycle latency; (0.2x, 60 cycles) is the chosen point.");
}

fn pooled(summaries: &[vs_circuit::TraceSummary]) -> (f64, f64, f64, f64, f64) {
    let min = summaries.iter().map(|s| s.min).fold(f64::INFINITY, f64::min);
    let max = summaries.iter().map(|s| s.max).fold(f64::NEG_INFINITY, f64::max);
    let n = summaries.len() as f64;
    let q1 = summaries.iter().map(|s| s.q1).sum::<f64>() / n;
    let med = summaries.iter().map(|s| s.median).sum::<f64>() / n;
    let q3 = summaries.iter().map(|s| s.q3).sum::<f64>() / n;
    (min, q1, med, q3, max)
}

/// Fig. 11: supply-noise distribution across benchmarks (all 16 SMs),
/// circuit-only vs cross-layer at 0.2x CR-IVR area, plus the worst case.
pub(super) fn fig11(settings: &RunSettings, r: &mut Recorder) {
    let mut rows = Vec::new();
    let record_box = |r: &mut Recorder, bench: &str, cfg: &str, b: (f64, f64, f64, f64, f64)| {
        for (stat, v) in [("min", b.0), ("q1", b.1), ("med", b.2), ("q3", b.3), ("max", b.4)] {
            r.gauge_labeled("v_box", &[("bench", bench), ("cfg", cfg), ("stat", stat)], v);
        }
    };
    let mut pool = vs_core::CosimPool::new();
    for id in vs_core::ScenarioId::ALL {
        let name = id.name();
        crate::obs::progress_step(&format!("  running {name} (circuit-only / cross-layer) ..."));
        let mk = |pds| CosimConfig {
            record_traces: true,
            // Noise-scaled equivalent of the paper's 0.9 V threshold.
            v_threshold: 0.97,
            ..settings.config(pds)
        };
        let profile = id.profile();
        let pm = vs_core::PowerManagement::default();
        let co = pool.run_profile(
            &mk(PdsKind::VsCircuitOnly { area_mult: 0.2 }),
            &profile,
            pm.clone(),
        );
        let cl = pool.run_profile(&mk(PdsKind::VsCrossLayer { area_mult: 0.2 }), &profile, pm);
        let (omin, oq1, omed, oq3, omax) = pooled(&co.sm_voltage_summaries);
        let (cmin, cq1, cmed, cq3, cmax) = pooled(&cl.sm_voltage_summaries);
        record_box(r, name, "co", (omin, oq1, omed, oq3, omax));
        record_box(r, name, "cl", (cmin, cq1, cmed, cq3, cmax));
        rows.push(vec![
            name.to_string(),
            format!("{omin:.3}/{oq1:.3}/{omed:.3}/{oq3:.3}/{omax:.3}"),
            format!("{cmin:.3}/{cq1:.3}/{cmed:.3}/{cq3:.3}/{cmax:.3}"),
        ]);
    }
    // Worst-case box.
    let wc_co = run_worst_case(&WorstCaseConfig {
        cross_layer: false,
        ..WorstCaseConfig::default()
    });
    let wc_cl = run_worst_case(&WorstCaseConfig::default());
    let s_co = wc_co.trace.summary();
    let s_cl = wc_cl.trace.summary();
    record_box(r, "worst-case", "co", (s_co.min, s_co.q1, s_co.median, s_co.q3, s_co.max));
    record_box(r, "worst-case", "cl", (s_cl.min, s_cl.q1, s_cl.median, s_cl.q3, s_cl.max));
    rows.push(vec![
        "worst case".into(),
        format!(
            "{:.3}/{:.3}/{:.3}/{:.3}/{:.3}",
            s_co.min, s_co.q1, s_co.median, s_co.q3, s_co.max
        ),
        format!(
            "{:.3}/{:.3}/{:.3}/{:.3}/{:.3}",
            s_cl.min, s_cl.q1, s_cl.median, s_cl.q3, s_cl.max
        ),
    ]);
    r.table(
        "Fig. 11: SM voltage distribution (min/q1/median/q3/max, V) at 0.2x CR-IVR",
        &["benchmark", "circuit-only", "cross-layer"],
        &rows,
    );
    r.line("\npaper shape: most benchmarks see modest noise reduction from smoothing;");
    r.line("the worst case is where the cross-layer guarantee matters (bounded >= 0.8 V).");
}

/// Fig. 12: performance penalty of voltage smoothing vs the controller's
/// trigger threshold.
pub(super) fn fig12(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    // Our PDN's effective decap (die + package) compresses benchmark
    // supply noise into ~0.97-1.0 V, so the sweep spans that band; the
    // paper's 0.7-1.0 V axis maps onto it (see EXPERIMENTS.md).
    let thresholds = [0.90, 0.94, 0.96, 0.98, 1.00];
    crate::obs::progress_step("running the baseline and 5 threshold suites ...");
    let suites: Vec<_> = thresholds
        .iter()
        .map(|&th| {
            let cfg = CosimConfig {
                v_threshold: th,
                ..settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 })
            };
            (cfg, PowerManagement::default())
        })
        .collect();
    let (baseline, all) = run_with_baseline(exec, settings, &suites);
    let mut rows: Vec<Vec<String>> = benchmark_names().into_iter().map(|n| vec![n]).collect();
    for (th, runs) in thresholds.into_iter().zip(&all) {
        for (row, run) in rows.iter_mut().zip(runs.iter()) {
            let p = baseline.perf_penalty(run).max(0.0);
            r.gauge_labeled(
                "penalty",
                &[("bench", &run.benchmark), ("vth", &format!("{th:.2}"))],
                p,
            );
            row.push(pct(p));
        }
    }
    r.table(
        "Fig. 12: performance penalty vs controller threshold voltage",
        &["benchmark", "0.90 V", "0.94 V", "0.96 V", "0.98 V", "1.00 V"],
        &rows,
    );
    r.line("\npaper shape: penalty grows with the threshold (more triggering);");
    r.line("at the default 0.9 V it stays in the low single digits.");
}

/// Fig. 13: net-energy-saving vs performance-penalty trade-off space for
/// DIWS / FII / DCC weight combinations.
pub(super) fn fig13(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    use vs_control::ActuatorWeights;
    let combos = [
        ("DIWS", "diws", ActuatorWeights::DIWS_ONLY),
        ("FII", "fii", ActuatorWeights::FII_ONLY),
        ("DCC", "dcc", ActuatorWeights::DCC_ONLY),
        ("0.8 DIWS + 0.2 FII", "diws0.8-fii0.2", ActuatorWeights::new(0.8, 0.2, 0.0)),
        ("0.8 DIWS + 0.2 DCC", "diws0.8-dcc0.2", ActuatorWeights::new(0.8, 0.0, 0.2)),
        (
            "0.6 DIWS + 0.2 FII + 0.2 DCC",
            "diws0.6-fii0.2-dcc0.2",
            ActuatorWeights::new(0.6, 0.2, 0.2),
        ),
    ];
    crate::obs::progress_step("running the baseline and 6 actuator-weight suites ...");
    let suites: Vec<_> = combos
        .iter()
        .map(|&(_, _, weights)| {
            let cfg = CosimConfig {
                weights,
                // Noise-scaled equivalent of the paper's 0.9 V threshold (our
                // effective decap compresses the noise band; EXPERIMENTS.md).
                v_threshold: 0.97,
                ..settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 })
            };
            (cfg, PowerManagement::default())
        })
        .collect();
    let (baseline, all) = run_with_baseline(exec, settings, &suites);
    let mut rows = Vec::new();
    for ((label, slug, _), runs) in combos.into_iter().zip(&all) {
        let n = runs.len() as f64;
        let penalty: f64 =
            runs.iter().map(|run| baseline.perf_penalty(run).max(0.0)).sum::<f64>() / n;
        let saving: f64 = runs.iter().map(|run| baseline.net_energy_saving(run)).sum::<f64>() / n;
        r.gauge_labeled("penalty", &[("weights", slug)], penalty);
        r.gauge_labeled("saving", &[("weights", slug)], saving);
        rows.push(vec![label.to_string(), pct(penalty), pct(saving)]);
    }
    r.table(
        "Fig. 13: actuator-weight trade-off space (suite averages)",
        &["weights", "perf penalty", "net energy saving"],
        &rows,
    );
    r.line("\npaper shape: DIWS maximizes net savings; FII (and DCC) trade some saving");
    r.line("for lower penalty; DCC is dominated where FII is applicable.");
}

/// Fig. 14: per-benchmark performance penalty and net energy saving of the
/// cross-layer VS GPU vs the conventional PDS.
pub(super) fn fig14(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    crate::obs::progress_step("running the baseline and cross-layer suites ...");
    let cfg = CosimConfig {
        // Noise-scaled equivalent of the paper's 0.9 V threshold.
        v_threshold: 0.97,
        ..settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 })
    };
    let (baseline, mut all) =
        run_with_baseline(exec, settings, &[(cfg, PowerManagement::default())]);
    let runs = all.pop().expect("one suite requested");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            vec![
                run.benchmark.clone(),
                pct(baseline.perf_penalty(run).max(0.0)),
                pct(baseline.net_energy_saving(run)),
                pct(run.throttle_fraction),
            ]
        })
        .collect();
    for run in runs.iter() {
        let b: &str = &run.benchmark;
        r.gauge_labeled("penalty", &[("bench", b)], baseline.perf_penalty(run).max(0.0));
        r.gauge_labeled("saving", &[("bench", b)], baseline.net_energy_saving(run));
        r.gauge_labeled("throttle", &[("bench", b)], run.throttle_fraction);
    }
    r.table(
        "Fig. 14: performance penalty and net energy saving per benchmark",
        &["benchmark", "perf penalty", "net energy saving", "throttled SM-cycles"],
        &rows,
    );
    let n = runs.len() as f64;
    let avg_p: f64 = runs.iter().map(|run| baseline.perf_penalty(run).max(0.0)).sum::<f64>() / n;
    let avg_s: f64 = runs.iter().map(|run| baseline.net_energy_saving(run)).sum::<f64>() / n;
    r.gauge("penalty_avg", avg_p);
    r.gauge("saving_avg", avg_s);
    r.line(&format!("\naverages: penalty {} | net saving {}", pct(avg_p), pct(avg_s)));
    r.line("paper: penalties within 2-4%, net savings 10-15%.");
}

/// Fig. 15: DFS on the conventional vs the voltage-stacked GPU — total
/// normalized energy (computation + delivery loss).
pub(super) fn fig15(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    let pm_conv = PowerManagement {
        dfs: Some(DfsConfig::with_goal(0.7)),
        ..PowerManagement::default()
    };
    let pm_vs = PowerManagement {
        dfs: Some(DfsConfig::with_goal(0.7)),
        use_hypervisor: true,
        ..PowerManagement::default()
    };
    crate::obs::progress_step(
        "running the no-DFS baseline and DFS on the conventional and cross-layer VS PDS \
         (with VS-aware hypervisor) ...",
    );
    let (baseline, all) = run_with_baseline(
        exec,
        settings,
        &[
            (settings.config(PdsKind::ConventionalVrm), pm_conv),
            (settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 }), pm_vs),
        ],
    );
    let (conv, vs) = (&all[0], &all[1]);
    let rows: Vec<Vec<String>> = conv
        .iter()
        .zip(vs.iter())
        .map(|(c, v)| {
            let base = baseline.get(&c.benchmark).ledger.board_input_j;
            vec![
                c.benchmark.clone(),
                format!("{:.3}", c.ledger.board_input_j / base),
                format!("{:.3}", v.ledger.board_input_j / base),
                format!("{:.3}", c.avg_freq_scale),
                format!("{:.3}", v.avg_freq_scale),
            ]
        })
        .collect();
    for (c, v) in conv.iter().zip(vs.iter()) {
        let base = baseline.get(&c.benchmark).ledger.board_input_j;
        let b: &str = &c.benchmark;
        r.gauge_labeled(
            "energy_norm",
            &[("pm", "dfs"), ("pds", "conv"), ("bench", b)],
            c.ledger.board_input_j / base,
        );
        r.gauge_labeled(
            "energy_norm",
            &[("pm", "dfs"), ("pds", "vs"), ("bench", b)],
            v.ledger.board_input_j / base,
        );
    }
    r.table(
        "Fig. 15: DFS (70% goal) — total energy normalized to no-DFS conventional",
        &["benchmark", "conv + DFS", "VS + DFS", "conv avg f", "VS avg f"],
        &rows,
    );
    let avg = |runs: &[vs_core::CosimReport]| {
        runs.iter()
            .map(|run| run.ledger.board_input_j / baseline.get(&run.benchmark).ledger.board_input_j)
            .sum::<f64>()
            / runs.len() as f64
    };
    let (avg_conv, avg_vs) = (avg(conv), avg(vs));
    r.gauge_labeled("energy_norm_avg", &[("pm", "dfs"), ("pds", "conv")], avg_conv);
    r.gauge_labeled("energy_norm_avg", &[("pm", "dfs"), ("pds", "vs")], avg_vs);
    r.gauge("dfs_saving_pts", avg_conv - avg_vs);
    r.line(&format!("\naverages: conv+DFS {avg_conv:.3} | VS+DFS {avg_vs:.3}"));
    r.line("paper: the VS GPU with DFS saves 7-13% over DFS on the conventional PDS");
    r.line("(superior PDE outweighs the hypervisor's slight computational-energy cost).");
}

/// Fig. 16: power gating on the conventional vs the voltage-stacked GPU.
pub(super) fn fig16(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    let pm_conv = PowerManagement {
        pg: Some(PgConfig::default()),
        ..PowerManagement::default()
    };
    let pm_vs = PowerManagement {
        pg: Some(PgConfig::default()),
        use_hypervisor: true,
        ..PowerManagement::default()
    };
    crate::obs::progress_step(
        "running the no-PG baseline and PG on the conventional and cross-layer VS PDS \
         (with VS-aware hypervisor) ...",
    );
    let (baseline, all) = run_with_baseline(
        exec,
        settings,
        &[
            (settings.config(PdsKind::ConventionalVrm), pm_conv),
            (settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 }), pm_vs),
        ],
    );
    let (conv, vs) = (&all[0], &all[1]);
    let rows: Vec<Vec<String>> = conv
        .iter()
        .zip(vs.iter())
        .map(|(c, v)| {
            let base = baseline.get(&c.benchmark).ledger.board_input_j;
            vec![
                c.benchmark.clone(),
                format!("{:.3}", c.ledger.board_input_j / base),
                format!("{:.3}", v.ledger.board_input_j / base),
                format!("{:.2e}", c.gating_saved_j),
                format!("{:.2e}", v.gating_saved_j),
            ]
        })
        .collect();
    for (c, v) in conv.iter().zip(vs.iter()) {
        let base = baseline.get(&c.benchmark).ledger.board_input_j;
        let b: &str = &c.benchmark;
        r.gauge_labeled(
            "energy_norm",
            &[("pm", "pg"), ("pds", "conv"), ("bench", b)],
            c.ledger.board_input_j / base,
        );
        r.gauge_labeled(
            "energy_norm",
            &[("pm", "pg"), ("pds", "vs"), ("bench", b)],
            v.ledger.board_input_j / base,
        );
    }
    r.table(
        "Fig. 16: power gating — total energy normalized to no-PG conventional",
        &["benchmark", "conv + PG", "VS + PG", "conv saved (J)", "VS saved (J)"],
        &rows,
    );
    let avg = |runs: &[vs_core::CosimReport]| {
        runs.iter()
            .map(|run| run.ledger.board_input_j / baseline.get(&run.benchmark).ledger.board_input_j)
            .sum::<f64>()
            / runs.len() as f64
    };
    let (avg_conv, avg_vs) = (avg(conv), avg(vs));
    r.gauge_labeled("energy_norm_avg", &[("pm", "pg"), ("pds", "conv")], avg_conv);
    r.gauge_labeled("energy_norm_avg", &[("pm", "pg"), ("pds", "vs")], avg_vs);
    r.gauge("pg_saving_pts", avg_conv - avg_vs);
    r.line(&format!("\naverages: conv+PG {avg_conv:.3} | VS+PG {avg_vs:.3}"));
    r.line("paper: the hypervisor slightly constrains gating, but superior PDE keeps");
    r.line("the VS GPU ahead of PG on the conventional PDS.");
}

/// Fig. 17: distribution of normalized inter-layer current imbalance under
/// no power management, DFS at several performance goals, and power gating.
pub(super) fn fig17(exec: &Executor, settings: &RunSettings, r: &mut Recorder) {
    use vs_core::ImbalanceHistogram;
    let configs: Vec<(&str, &str, PowerManagement)> = vec![
        ("No PM", "none", PowerManagement::default()),
        (
            "DFS 70%",
            "dfs70",
            PowerManagement {
                dfs: Some(DfsConfig::with_goal(0.7)),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
        (
            "DFS 50%",
            "dfs50",
            PowerManagement {
                dfs: Some(DfsConfig::with_goal(0.5)),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
        (
            "DFS 20%",
            "dfs20",
            PowerManagement {
                dfs: Some(DfsConfig::with_goal(0.2)),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
        (
            "PG",
            "pg",
            PowerManagement {
                pg: Some(PgConfig::default()),
                use_hypervisor: true,
                ..PowerManagement::default()
            },
        ),
    ];
    crate::obs::progress_step("running the 5 power-management suites ...");
    let suites: Vec<_> = configs
        .iter()
        .map(|(_, _, pm)| (settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 }), pm.clone()))
        .collect();
    let all = exec.run_suites(&suites);
    let mut rows = Vec::new();
    for ((label, slug, _), runs) in configs.into_iter().zip(&all) {
        // Worst, average, best by the balanced (<10%) fraction.
        let mut by_balance: Vec<_> = runs.iter().collect();
        by_balance.sort_by(|a, b| {
            a.imbalance.fractions()[0]
                .partial_cmp(&b.imbalance.fractions()[0])
                .expect("finite")
        });
        let worst = by_balance.first().expect("nonempty suite");
        let best = by_balance.last().expect("nonempty suite");
        let mut merged = ImbalanceHistogram::new((4, 4));
        for run in runs.iter() {
            merged.merge(&run.imbalance);
        }
        for (tag, name, f) in [
            ("worst", worst.benchmark.as_str(), worst.imbalance.fractions()),
            ("average", "all", merged.fractions()),
            ("best", best.benchmark.as_str(), best.imbalance.fractions()),
        ] {
            for (bin, v) in [("le10", f[0]), ("le20", f[1]), ("le40", f[2]), ("gt40", f[3])] {
                r.gauge_labeled(
                    "imbalance_frac",
                    &[("pm", slug), ("case", tag), ("bin", bin)],
                    v,
                );
            }
            rows.push(vec![
                label.to_string(),
                tag.to_string(),
                name.to_string(),
                pct(f[0]),
                pct(f[1]),
                pct(f[2]),
                pct(f[3]),
            ]);
        }
    }
    r.table(
        "Fig. 17: normalized vertical current-imbalance distribution",
        &["config", "case", "benchmark", "0-10%", "10-20%", "20-40%", ">40%"],
        &rows,
    );
    r.line("\npaper shape: >= 50% of cycles below 10% imbalance on average, ~93% below 40%;");
    r.line("DFS/PG via the hypervisor do not fundamentally disturb the balance.");
}
