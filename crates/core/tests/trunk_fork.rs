//! Forking runs from a shared trunk, bit for bit.
//!
//! dse steps one steady-load trunk per rig and forks its worst-case runs
//! at the gate, so four things must hold exactly:
//!
//! 1. a cloned `PdsRig` steps on as the original would, scalar and in
//!    `RigLanes`, under loads that jump and differ per SM;
//! 2. a run forked from a trunk's gate snapshot ends with the voltages of
//!    its full `run_worst_case_in` run, circuit-only and cross-layer;
//! 3. a run whose controller acts before the gate is caught by the fork's
//!    load check and falls back to its full run;
//! 4. the ledger a trunk books at some controller power equals the ledger
//!    of a rig built at that power, also when the solver gives up.

use vs_circuit::{BatchStats, RecoveryPolicy, SolverWorkspace};
use vs_control::{ActuatorWeights, DetectorKind};
use vs_core::{
    fork_worst_case_lanes, run_worst_case_in, EnergyLedger, GateSnapshot, PdsKind, PdsRig,
    RigLanes, StackGeometry, WorstCaseConfig, WorstCaseVoltages,
};

const DT: f64 = 1.0 / 700e6;

const GEOMETRIES: [StackGeometry; 3] = [
    StackGeometry::PAPER,
    StackGeometry {
        n_layers: 2,
        n_columns: 8,
    },
    StackGeometry {
        n_layers: 8,
        n_columns: 2,
    },
];

const AREAS: [f64; 2] = [0.2, 1.72];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every field's bit pattern, so a NaN or a signed zero cannot compare
/// equal by accident.
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

/// Loads that jump every few steps and differ per SM: (SM power, DCC
/// ballast, fake power), watts.
fn jumping_loads(step: usize, n_sms: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let phase = step / 7;
    let sm = (0..n_sms)
        .map(|i| 2.0 + ((phase * 31 + i * 17) % 13) as f64 * 0.6)
        .collect();
    let dcc = (0..n_sms)
        .map(|i| {
            if (phase + i).is_multiple_of(5) {
                0.75
            } else {
                0.0
            }
        })
        .collect();
    let fake = (0..n_sms)
        .map(|i| {
            if (phase + 2 * i).is_multiple_of(7) {
                0.3
            } else {
                0.0
            }
        })
        .collect();
    (sm, dcc, fake)
}

#[test]
fn a_cloned_rig_steps_on_bit_for_bit_scalar_and_in_lanes() {
    const FORK_AT: usize = 120;
    const STEPS: usize = 300;
    for geometry in GEOMETRIES {
        for area_mult in AREAS {
            let params = geometry.pdn_params();
            let mut original =
                PdsRig::with_params(PdsKind::VsCrossLayer { area_mult }, &params, DT, 0.05);
            let n_sms = original.n_sms();
            for step in 0..FORK_AT {
                let (sm, dcc, fake) = jumping_loads(step, n_sms);
                original
                    .step(&sm, &dcc, &fake)
                    .expect("the trunk steps cleanly");
            }
            let mut scalar_fork = original.clone();
            let mut lanes = RigLanes::new(vec![original.clone(), original.clone()]);
            for step in FORK_AT..STEPS {
                let (sm, dcc, fake) = jumping_loads(step, n_sms);
                original
                    .step(&sm, &dcc, &fake)
                    .expect("the original steps cleanly");
                scalar_fork
                    .step(&sm, &dcc, &fake)
                    .expect("the fork steps cleanly");
                let outcomes = lanes.step(|_| (&sm, &dcc, &fake));
                assert!(
                    outcomes.iter().all(|o| o.advanced()),
                    "{geometry} {area_mult}"
                );
                let want = bits(&original.sm_voltages());
                let ctx = format!("{geometry} at {area_mult}x, step {step}");
                assert_eq!(bits(&scalar_fork.sm_voltages()), want, "scalar fork, {ctx}");
                for lane in 0..2 {
                    assert_eq!(
                        bits(&lanes.rig(lane).sm_voltages()),
                        want,
                        "lane {lane}, {ctx}"
                    );
                }
            }
            let want = ledger_bits(&original.ledger());
            assert_eq!(
                ledger_bits(&scalar_fork.ledger()),
                want,
                "{geometry} {area_mult}"
            );
            for lane in 0..2 {
                assert_eq!(ledger_bits(&lanes.rig(lane).ledger()), want, "{geometry}");
            }
            assert!(lanes.stats().multi_lane_groups > 0, "{:?}", lanes.stats());
        }
    }
}

/// A short gating run on `geometry` at `area_mult`: 1400 steps, gated at
/// 560.
fn gating_run(geometry: StackGeometry, area_mult: f64) -> WorstCaseConfig {
    WorstCaseConfig {
        area_mult,
        geometry,
        gate_at_s: 0.8e-6,
        duration_s: 2e-6,
        ..WorstCaseConfig::default()
    }
}

/// The runs of one rig that dse forks from one trunk: circuit-only, and
/// cross-layer under several controllers.
fn family(geometry: StackGeometry, area_mult: f64) -> Vec<WorstCaseConfig> {
    let base = gating_run(geometry, area_mult);
    vec![
        WorstCaseConfig {
            cross_layer: false,
            ..base.clone()
        },
        base.clone(),
        WorstCaseConfig {
            latency_cycles: 30,
            detector: DetectorKind::Cpm,
            weights: ActuatorWeights::new(0.4, 0.2, 0.4),
            ..base.clone()
        },
        WorstCaseConfig {
            latency_cycles: 120,
            v_threshold: 0.88,
            weights: ActuatorWeights::DIWS_ONLY,
            ..base.clone()
        },
        WorstCaseConfig {
            latency_cycles: 90,
            ..base
        },
    ]
}

/// Steps the steady-load trunk `cfg`'s prefix follows (controller power
/// 0, the circuit-only kind) up to its gate and snapshots it there.
fn trunk(cfg: &WorstCaseConfig) -> GateSnapshot {
    let kind = PdsKind::VsCircuitOnly {
        area_mult: cfg.area_mult,
    };
    let mut rig = PdsRig::with_params(kind, &cfg.geometry.pdn_params(), cfg.dt(), 0.0);
    let n_sms = rig.n_sms();
    let loads = vec![cfg.p_sm_w; n_sms];
    let zeros = vec![0.0; n_sms];
    let mut voltages = Vec::new();
    for _ in 0..cfg.pre_gate_steps() {
        rig.step(&loads, &zeros, &zeros)
            .expect("the trunk steps cleanly");
        voltages.extend(rig.sm_voltages());
    }
    GateSnapshot {
        rig,
        voltages,
        sm_power_w: loads,
        dcc_power_w: zeros.clone(),
        fake_power_w: zeros,
    }
}

fn full_run(cfg: &WorstCaseConfig) -> WorstCaseVoltages {
    let (run, _) = run_worst_case_in(cfg, SolverWorkspace::new());
    WorstCaseVoltages {
        worst_voltage: run.worst_voltage,
        final_voltage: run.final_voltage,
    }
}

fn voltage_bits(v: &WorstCaseVoltages) -> (u64, u64) {
    (v.worst_voltage.to_bits(), v.final_voltage.to_bits())
}

#[test]
fn forked_tails_end_as_their_full_runs() {
    for geometry in GEOMETRIES {
        for area_mult in AREAS {
            let cfgs = family(geometry, area_mult);
            let snapshot = trunk(&cfgs[0]);
            assert_eq!(snapshot.steps(), 560);
            let mut workspaces = Vec::new();
            let mut stats = BatchStats::default();
            for batch in cfgs.chunks(4) {
                let (forked, counts) =
                    fork_worst_case_lanes(batch, Some(&snapshot), &mut workspaces, &mut stats);
                assert_eq!(
                    (counts.forks, counts.fallbacks),
                    (batch.len(), 0),
                    "{geometry}"
                );
                for (cfg, fork) in batch.iter().zip(&forked) {
                    let full = full_run(cfg);
                    assert!(
                        full.worst_voltage.is_finite(),
                        "the gate fires inside the run"
                    );
                    assert_eq!(voltage_bits(fork), voltage_bits(&full), "{cfg:?}");
                }
            }
            // Only the 840 tail steps went through lanes, and the forks'
            // rigs were clones: the workspace pool stayed empty.
            assert_eq!(stats.shared_steps, 2 * 840, "{stats:?}");
            assert!(workspaces.is_empty());

            // Without a snapshot (a trunk that gave up before the gate)
            // every run falls back to its full run, with the same result.
            let no_trunk = None::<&GateSnapshot>;
            let (full, counts) =
                fork_worst_case_lanes(&cfgs[..4], no_trunk, &mut workspaces, &mut stats);
            assert_eq!((counts.forks, counts.fallbacks), (0, 4));
            for (cfg, v) in cfgs.iter().zip(&full) {
                assert_eq!(voltage_bits(v), voltage_bits(&full_run(cfg)), "{cfg:?}");
            }
        }
    }
}

#[test]
fn a_controller_that_acts_before_the_gate_falls_back() {
    // Under the steady load the 2x8 stack's layers sit at about 0.995 V,
    // below the 1 V nominal, so a 1.1 V threshold throttles within the
    // loop latency, long before the gate. (The 4x4 stack's layers sit
    // above nominal, where the controller's droop term is zero and it
    // stages the steady load whatever its threshold.)
    let base = gating_run(
        StackGeometry {
            n_layers: 2,
            n_columns: 8,
        },
        0.2,
    );
    let eager = WorstCaseConfig {
        v_threshold: 1.1,
        ..base.clone()
    };
    let cfgs = vec![
        base.clone(),
        eager,
        WorstCaseConfig {
            cross_layer: false,
            ..base.clone()
        },
    ];
    let snapshot = trunk(&base);
    let mut workspaces = Vec::new();
    let mut stats = BatchStats::default();
    let (voltages, counts) =
        fork_worst_case_lanes(&cfgs, Some(&snapshot), &mut workspaces, &mut stats);
    assert_eq!((counts.forks, counts.fallbacks), (2, 1));
    for (cfg, v) in cfgs.iter().zip(&voltages) {
        assert_eq!(voltage_bits(v), voltage_bits(&full_run(cfg)), "{cfg:?}");
    }
    // The fallback stepped in full, on a pool workspace it then returned.
    assert_eq!(workspaces.len(), 1);
}

#[test]
fn a_trunk_books_each_controller_power_as_a_rig_built_at_it() {
    const STEPS: usize = 400;
    for geometry in GEOMETRIES {
        for area_mult in AREAS {
            // The second case poisons one step with recovery off: the
            // solver gives up there, and every ledger stops at the same
            // accepted step.
            for poison_at in [None, Some(150)] {
                let params = geometry.pdn_params();
                let build = |kind, watts| {
                    let mut rig = PdsRig::with_params(kind, &params, DT, watts);
                    rig.set_recovery_policy(RecoveryPolicy::disabled());
                    rig
                };
                let step_all = |rig: &mut PdsRig| {
                    let n_sms = rig.n_sms();
                    let zeros = vec![0.0; n_sms];
                    for step in 0..STEPS {
                        let watts = if poison_at == Some(step) {
                            f64::NAN
                        } else {
                            8.0
                        };
                        if rig.step(&vec![watts; n_sms], &zeros, &zeros).is_err() {
                            return Some(step);
                        }
                    }
                    None
                };
                let mut trunk = build(PdsKind::VsCircuitOnly { area_mult }, 0.0);
                assert_eq!(step_all(&mut trunk), poison_at);
                for overhead_w in [0.6, 0.953_333, 1.25] {
                    for kind in [
                        PdsKind::VsCircuitOnly { area_mult },
                        PdsKind::VsCrossLayer { area_mult },
                    ] {
                        let mut alone = build(kind, overhead_w);
                        assert_eq!(step_all(&mut alone), poison_at);
                        assert_eq!(
                            ledger_bits(&trunk.ledger_at_controller_power(overhead_w)),
                            ledger_bits(&alone.ledger()),
                            "{kind:?} on {geometry} at {overhead_w} W, poison {poison_at:?}"
                        );
                    }
                }
            }
        }
    }
}
