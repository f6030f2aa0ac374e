//! Differential harness: [`BatchedTransient`] must produce **bit-identical**
//! trajectories to N independent scalar [`Transient`] runs — at every lane
//! count, for control-variant lanes (one shared factorization), value-variant
//! lanes (each solved alone), mixed batches with partial groups, and runs
//! where injected control faults force dt-halving / backward-Euler recovery
//! on a strict subset of lanes (mask exit + rejoin).

mod common;

use common::{
    apply_controls, build_rig, control_value, record, VariantSpec,
};
use vs_circuit::{BatchStats, BatchedTransient, LaneOutcome, RecoveryPolicy, Transient};

/// Number of shared timesteps every scenario runs.
const STEPS: u64 = 48;

/// Runs one variant through the scalar path: `step_with_recovery` per step,
/// freeze forever on an unrecoverable error — the exact semantics
/// `BatchedTransient` promises per lane.
fn run_scalar(
    spec: &VariantSpec,
    policy: &RecoveryPolicy,
    inject: impl Fn(u64) -> Option<f64>,
) -> Vec<u64> {
    let mut rig = build_rig(spec);
    let mut active = true;
    let mut traj = Vec::new();
    for step in 0..STEPS {
        if active {
            apply_controls(&mut rig, spec, step);
            if let Some(x) = inject(step) {
                let c0 = rig.controls[0];
                rig.sim.set_control(c0, x);
            }
            if rig.sim.step_with_recovery(policy).is_err() {
                active = false;
            }
        }
        record(&mut traj, &rig);
    }
    traj
}

/// What a batched run produced, per lane in lane order.
struct BatchRun {
    traj: Vec<Vec<u64>>,
    /// `(lane, step, report)` for every step that left the fast path and
    /// recovered.
    recoveries: Vec<(usize, u64, vs_circuit::StepReport)>,
    active: Vec<bool>,
    stats: BatchStats,
}

/// Runs all variants as one lockstep batch, driving the same control
/// schedule and fault injection as the scalar runner.
fn run_batched(
    specs: &[VariantSpec],
    policy: &RecoveryPolicy,
    inject: impl Fn(usize, u64) -> Option<f64>,
) -> BatchRun {
    let mut handles = Vec::new();
    let mut lanes: Vec<Transient> = Vec::new();
    for spec in specs {
        let rig = build_rig(spec);
        handles.push((rig.controls, rig.top, rig.mid));
        lanes.push(rig.sim);
    }
    let mut batch = BatchedTransient::new(lanes);
    let mut traj = vec![Vec::new(); specs.len()];
    let mut recoveries = Vec::new();
    for step in 0..STEPS {
        for (i, spec) in specs.iter().enumerate() {
            if !batch.is_active(i) {
                continue;
            }
            let (controls, _, _) = &handles[i];
            for (k, &c) in controls.iter().enumerate() {
                batch.lane_mut(i).set_control(c, control_value(spec, k, step));
            }
            if let Some(x) = inject(i, step) {
                batch.lane_mut(i).set_control(controls[0], x);
            }
        }
        for (i, outcome) in batch.step_all(policy).iter().enumerate() {
            if let LaneOutcome::Stepped(r) = outcome {
                if r.recovered() {
                    recoveries.push((i, step, *r));
                }
            }
        }
        for (i, (_, top, mid)) in handles.iter().enumerate() {
            record_sim(&mut traj[i], batch.lane(i), *top, *mid);
        }
    }
    let active = (0..specs.len()).map(|i| batch.is_active(i)).collect();
    BatchRun { traj, recoveries, active, stats: batch.stats() }
}

/// `common::record` for a lane borrowed out of the batch.
fn record_sim(traj: &mut Vec<u64>, sim: &Transient, top: vs_circuit::NodeId, mid: vs_circuit::NodeId) {
    let e = sim.energy();
    for v in [
        sim.time(),
        sim.voltage(top),
        sim.voltage(mid),
        e.resistive_loss_j,
        e.source_delivered_j,
        e.load_absorbed_j,
        e.recycler_loss_j,
    ] {
        traj.push(v.to_bits());
    }
}

fn no_inject(_: usize, _: u64) -> Option<f64> {
    None
}

/// Asserts every lane's batched trajectory equals its scalar twin, bit for
/// bit, and reports the first diverging (lane, step) on failure.
fn assert_lanes_match_scalar(
    specs: &[VariantSpec],
    policy: &RecoveryPolicy,
    run: &BatchRun,
    inject: impl Fn(usize, u64) -> Option<f64>,
) {
    for (i, spec) in specs.iter().enumerate() {
        let scalar = run_scalar(spec, policy, |step| inject(i, step));
        assert_eq!(
            run.traj[i].len(),
            scalar.len(),
            "lane {i}: trajectory lengths differ"
        );
        for (k, (&b, &s)) in run.traj[i].iter().zip(&scalar).enumerate() {
            assert_eq!(
                b,
                s,
                "lane {i} diverges from scalar at step {} field {} \
                 (batched {:e} vs scalar {:e})",
                k / 7,
                k % 7,
                f64::from_bits(b),
                f64::from_bits(s),
            );
        }
    }
}

#[test]
fn shared_factor_batches_match_scalar_at_every_lane_count() {
    let policy = RecoveryPolicy::default();
    // 5 exercises a non-power-of-two batch; 1 must degrade to the scalar
    // kernel without changing results.
    for n in [1usize, 2, 4, 5, 8] {
        let specs: Vec<VariantSpec> =
            (0..n as u64).map(|i| VariantSpec::control_only(0xD1FF, i)).collect();
        let run = run_batched(&specs, &policy, no_inject);
        assert_lanes_match_scalar(&specs, &policy, &run, no_inject);
        assert_eq!(run.stats.shared_steps, STEPS);
        assert_eq!(run.stats.lane_steps, STEPS * n as u64);
        assert_eq!(run.stats.mask_exits, 0);
        assert_eq!(run.stats.retired, 0);
        if n == 1 {
            assert_eq!(run.stats.multi_lane_groups, 0);
            assert_eq!(run.stats.singleton_solves, STEPS);
        } else {
            // Identical netlists: every shared step is one shared-factor
            // group covering all lanes.
            assert_eq!(run.stats.multi_lane_groups, STEPS);
            assert_eq!(run.stats.multi_lane_solves, STEPS * n as u64);
            assert_eq!(run.stats.singleton_solves, 0);
        }
    }
}

#[test]
fn value_variant_lanes_solve_alone_and_match_scalar() {
    let policy = RecoveryPolicy::default();
    let specs: Vec<VariantSpec> =
        (0..4u64).map(|i| VariantSpec::value_variant(0x5EED, i)).collect();
    let run = run_batched(&specs, &policy, no_inject);
    assert_lanes_match_scalar(&specs, &policy, &run, no_inject);
    // Different element values ⇒ different factorizations ⇒ no lane shares
    // a solve: every lane-step is a singleton inside the lockstep schedule.
    assert_eq!(run.stats.multi_lane_groups, 0);
    assert_eq!(run.stats.multi_lane_solves, 0);
    assert_eq!(run.stats.singleton_solves, STEPS * 4);
    assert_eq!(run.stats.mask_exits, 0);
}

#[test]
fn mixed_batch_forms_partial_groups_and_matches_scalar() {
    let policy = RecoveryPolicy::default();
    // The 3 control-only lanes share one factorization (a 3-lane group — a
    // partial group over the 6 lanes); the 2 value variants and the
    // topology variant each have their own and fall back to singleton
    // solves inside the lockstep schedule.
    let mut specs: Vec<VariantSpec> =
        (0..3u64).map(|i| VariantSpec::control_only(0x71FE, i)).collect();
    specs.extend((3..5u64).map(|i| VariantSpec::value_variant(0x71FE, i)));
    specs.push(VariantSpec::topology_variant(0x71FE, 5));
    let run = run_batched(&specs, &policy, no_inject);
    assert_lanes_match_scalar(&specs, &policy, &run, no_inject);
    assert_eq!(run.stats.multi_lane_groups, STEPS);
    assert_eq!(run.stats.multi_lane_solves, STEPS * 3);
    assert_eq!(run.stats.singleton_solves, STEPS * 3);
}

#[test]
fn masked_lanes_recover_via_dt_halving_bit_identically() {
    let policy = RecoveryPolicy::default();
    let specs: Vec<VariantSpec> =
        (0..4u64).map(|i| VariantSpec::control_only(0xFA11, i)).collect();
    // NaN control injections on a strict subset of lanes: lane 1 twice,
    // lane 2 once. Each forces a health-gate failure, a mask exit, and a
    // sanitize + dt-halving recovery.
    let inject = |lane: usize, step: u64| match (lane, step) {
        (1, 10) | (1, 23) | (2, 17) => Some(f64::NAN),
        _ => None,
    };
    let run = run_batched(&specs, &policy, inject);
    assert_lanes_match_scalar(&specs, &policy, &run, inject);
    assert_eq!(run.stats.mask_exits, 3);
    assert_eq!(run.stats.rejoins, 3);
    assert_eq!(run.stats.retired, 0);
    assert!(run.active.iter().all(|&a| a));
    // Recovery refactors a lane back at its nominal dt and method, bit for
    // bit, so a rejoined lane regroups: every shared step solves all four
    // lanes as one group.
    assert_eq!(run.stats.multi_lane_groups, STEPS);
    assert_eq!(run.stats.multi_lane_solves, STEPS * 4);
    // The recoveries happened exactly where injected, and each sanitized
    // the bad control and halved the timestep.
    let where_recovered: Vec<(usize, u64)> =
        run.recoveries.iter().map(|&(l, s, _)| (l, s)).collect();
    assert_eq!(where_recovered, vec![(1, 10), (2, 17), (1, 23)]);
    for &(_, _, r) in &run.recoveries {
        assert!(r.retries >= 1);
        assert!(r.halvings >= 1, "recovery must have halved dt");
        assert!(r.sanitized_controls >= 1);
        assert!(!r.used_backward_euler);
    }
}

#[test]
fn masked_lanes_recover_via_backward_euler_bit_identically() {
    // Falling back to backward Euler on the very first retry exercises the
    // method-switch path through the mask.
    let policy = RecoveryPolicy { backward_euler_after: 1, ..RecoveryPolicy::default() };
    let specs: Vec<VariantSpec> =
        (0..3u64).map(|i| VariantSpec::value_variant(0xBEBE, i)).collect();
    let inject = |lane: usize, step: u64| {
        if lane == 0 && step == 12 { Some(f64::NAN) } else { None }
    };
    let run = run_batched(&specs, &policy, inject);
    assert_lanes_match_scalar(&specs, &policy, &run, inject);
    assert_eq!(run.stats.mask_exits, 1);
    assert_eq!(run.stats.rejoins, 1);
    assert_eq!(run.recoveries.len(), 1);
    let (lane, step, r) = run.recoveries[0];
    assert_eq!((lane, step), (0, 12));
    assert!(r.used_backward_euler, "policy forces BE on the first retry");
}

#[test]
fn unrecoverable_lane_is_retired_and_frozen_bit_identically() {
    let policy = RecoveryPolicy::default();
    let specs: Vec<VariantSpec> =
        (0..4u64).map(|i| VariantSpec::control_only(0xDEAD, i)).collect();
    // A finite but absurd load current diverges under every retry: the lane
    // must exhaust its budget, retire at its last accepted state, and stay
    // frozen while the other lanes keep advancing.
    let inject = |lane: usize, step: u64| {
        if lane == 3 && step == 15 { Some(1e9) } else { None }
    };
    let run = run_batched(&specs, &policy, inject);
    assert_lanes_match_scalar(&specs, &policy, &run, inject);
    assert_eq!(run.stats.mask_exits, 1);
    assert_eq!(run.stats.rejoins, 0);
    assert_eq!(run.stats.retired, 1);
    assert_eq!(run.active, vec![true, true, true, false]);
    // After step 15 the retired lane's observables never change a bit.
    let frozen = &run.traj[3][15 * 7..16 * 7];
    for step in 16..STEPS as usize {
        assert_eq!(&run.traj[3][step * 7..(step + 1) * 7], frozen);
    }
}
