//! The lockstep drivers against their scalar runs, bit for bit.
//!
//! `run_worst_case_lanes` and `RigLanes` step several runs through one
//! shared solve per step. Each lane must perform exactly its scalar run's
//! floating-point work, so every voltage and ledger field equals the run
//! stepped alone. The batches mix families, CR-IVR areas, latencies and
//! detectors (lanes of one area share a factorization; a lane of another
//! area factors differently and solves alone within the shared step), and
//! the count leaves a one-lane batch. A lane whose step fails retires
//! alone while its neighbours go on.

use vs_circuit::{BatchStats, RecoveryPolicy, SolverWorkspace};
use vs_control::{ActuatorWeights, DetectorKind};
use vs_core::{
    run_worst_case, run_worst_case_lanes, EnergyLedger, PdsKind, PdsRig, RigLanes, WorstCaseConfig,
};

/// Lanes per batch, as the dse driver cuts them.
const LANES: usize = 4;

const DT: f64 = 1.0 / 700e6;

/// A short gating run: 1400 cycles, gated at 700.
fn worst_case(
    area_mult: f64,
    cross_layer: bool,
    latency_cycles: u32,
    detector: DetectorKind,
) -> WorstCaseConfig {
    WorstCaseConfig {
        area_mult,
        cross_layer,
        latency_cycles,
        detector,
        weights: ActuatorWeights::new(0.4, 0.2, 0.4),
        gate_at_s: 1e-6,
        duration_s: 2e-6,
        ..WorstCaseConfig::default()
    }
}

#[test]
fn worst_case_lanes_match_scalar_runs() {
    use DetectorKind::{Cpm, Oddd};
    // Nine runs cut into batches of 4, 4 and 1: the first batch is all at
    // 0.2x, the second mixes 1.0x lanes with one 0.2x lane, the last runs
    // alone.
    let cfgs = [
        worst_case(0.2, true, 60, Oddd),
        worst_case(0.2, true, 30, Cpm),
        worst_case(0.2, false, 60, Oddd),
        worst_case(0.2, true, 120, Oddd),
        worst_case(1.0, true, 60, Cpm),
        worst_case(1.0, false, 60, Oddd),
        worst_case(0.2, true, 120, Cpm),
        worst_case(1.0, true, 30, Oddd),
        worst_case(1.0, true, 90, Cpm),
    ];
    let mut workspaces: Vec<SolverWorkspace> = Vec::new();
    let mut stats = BatchStats::default();
    let mut lockstep = Vec::new();
    for batch in cfgs.chunks(LANES) {
        lockstep.extend(run_worst_case_lanes(batch, &mut workspaces, &mut stats));
    }
    assert_eq!(lockstep.len(), cfgs.len());
    for (cfg, lane) in cfgs.iter().zip(&lockstep) {
        let scalar = run_worst_case(cfg);
        assert!(
            scalar.worst_voltage.is_finite(),
            "the gate fires inside the run"
        );
        assert_eq!(
            (lane.worst_voltage.to_bits(), lane.final_voltage.to_bits()),
            (
                scalar.worst_voltage.to_bits(),
                scalar.final_voltage.to_bits()
            ),
            "{cfg:?}: lockstep {lane:?} vs scalar ({}, {})",
            scalar.worst_voltage,
            scalar.final_voltage,
        );
    }
    assert!(stats.multi_lane_groups > 0, "{stats:?}");
    assert!(
        stats.singleton_solves > 0,
        "the last batch runs alone: {stats:?}"
    );
    assert_eq!(stats.retired, 0, "{stats:?}");
    // Every lane's workspace came back for the next batch.
    assert_eq!(workspaces.len(), LANES);
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

/// A uniform-load rig run (the dse PDE run's shape): kind, controller
/// power booked per step, per-SM load, and the step whose load is NaN.
#[derive(Debug, Clone, Copy)]
struct Lane {
    kind: PdsKind,
    controller_w: f64,
    watts: f64,
    poison_at: Option<usize>,
}

const STEPS: usize = 400;

impl Lane {
    fn rig(&self) -> PdsRig {
        let mut rig = PdsRig::new(self.kind, DT, self.controller_w);
        rig.set_recovery_policy(RecoveryPolicy::disabled());
        rig
    }

    fn load(&self, step: usize) -> f64 {
        if self.poison_at == Some(step) {
            f64::NAN
        } else {
            self.watts
        }
    }

    /// The scalar run: steps until `STEPS` or the first error.
    fn scalar(&self) -> (PdsRig, Option<usize>) {
        let mut rig = self.rig();
        let zeros = vec![0.0; rig.n_sms()];
        for step in 0..STEPS {
            let loads = vec![self.load(step); rig.n_sms()];
            if rig.step(&loads, &zeros, &zeros).is_err() {
                return (rig, Some(step));
            }
        }
        (rig, None)
    }
}

#[test]
fn rig_lanes_match_scalar_runs_and_a_failed_lane_retires_alone() {
    let lanes = [
        Lane {
            kind: PdsKind::VsCrossLayer { area_mult: 0.2 },
            controller_w: 0.3,
            watts: 8.0,
            poison_at: None,
        },
        Lane {
            kind: PdsKind::VsCircuitOnly { area_mult: 0.2 },
            controller_w: 0.6,
            watts: 6.0,
            poison_at: None,
        },
        Lane {
            kind: PdsKind::VsCrossLayer { area_mult: 1.0 },
            controller_w: 0.3,
            watts: 8.0,
            poison_at: Some(150),
        },
        Lane {
            kind: PdsKind::VsCrossLayer { area_mult: 0.2 },
            controller_w: 0.45,
            watts: 7.0,
            poison_at: None,
        },
        Lane {
            kind: PdsKind::VsCircuitOnly { area_mult: 1.0 },
            controller_w: 0.6,
            watts: 8.0,
            poison_at: None,
        },
    ];
    let mut stats = BatchStats::default();
    for batch in lanes.chunks(LANES) {
        let mut rigs = RigLanes::new(batch.iter().map(Lane::rig).collect());
        let n_sms = rigs.rig(0).n_sms();
        let zeros = vec![0.0; n_sms];
        let mut stopped: Vec<Option<usize>> = vec![None; batch.len()];
        for step in 0..STEPS {
            let loads: Vec<Vec<f64>> = batch.iter().map(|l| vec![l.load(step); n_sms]).collect();
            let outcomes = rigs.step(|i| (&loads[i], &zeros, &zeros));
            for (i, outcome) in outcomes.iter().enumerate() {
                if !outcome.advanced() && stopped[i].is_none() {
                    stopped[i] = Some(step);
                }
            }
        }
        for (i, lane) in batch.iter().enumerate() {
            let (scalar, failed_at) = lane.scalar();
            assert_eq!(
                stopped[i], failed_at,
                "{lane:?} stops where its scalar run errs"
            );
            assert_eq!(failed_at, lane.poison_at, "{lane:?}");
            let rig = rigs.rig(i);
            assert_eq!(rig.time().to_bits(), scalar.time().to_bits(), "{lane:?}");
            assert_eq!(
                ledger_bits(&rig.ledger()),
                ledger_bits(&scalar.ledger()),
                "{lane:?}"
            );
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(rig.sm_voltages()),
                bits(scalar.sm_voltages()),
                "{lane:?}"
            );
        }
        stats.absorb(&rigs.stats());
    }
    // Only the poisoned lane retired.
    assert_eq!(stats.retired, 1, "{stats:?}");
    assert!(stats.multi_lane_groups > 0, "{stats:?}");
    assert!(
        stats.singleton_solves > 0,
        "the fifth lane runs alone: {stats:?}"
    );
}
